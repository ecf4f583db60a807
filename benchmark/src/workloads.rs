//! The simulator and checker workloads (the live-node fleet is in
//! [`crate::fleet`]). Each workload is a fixed generated input run to
//! completion on one thread; every layer is driven through its public
//! API only.

use crate::fleet::NodeFleet;
use crate::probes;
use crate::tracer::Tracer;
use mdr_flow::Mode;
use mdr_lint::por::Outcome as Explored;
use mdr_lint::transport::{self, TScenario};
use mdr_net::{gen, topo, Mm1, NodeId, Topology, TrafficMatrix};
use mdr_node::ChannelMutant;
use mdr_opt::GallagerConfig;
use mdr_routing::lfi;
use mdr_sim::{
    FluidSimulator, ObserverMode, Scenario, ScenarioEvent, SimConfig, SimEvent, SimMode, SimReport,
    Simulator,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The six workloads, in the order they are run and reported.
pub const NAMES: [&str; 6] =
    ["packet-figs", "fluid-boot", "fluid-churn", "fluid-isp1k", "node-fleet", "verify-transport"];

/// Seed of every topology and traffic generator (the `scale`
/// experiment's). Graphs and traffic matrices are fixed, and `--seed`
/// drives the simulators' random streams (timer phases, packet arrivals)
/// and the fault schedules: two random graphs or two heavy-tailed
/// gravity matrices of one size differ in work by far more than the
/// run-to-run noise (fluid-churn: 16 k to 33 k LSUs, 3.5 s to 6.1 s,
/// across six seeds), and a wall time that moves with the seed cannot
/// be held to a bound.
pub const GEN_SEED: u64 = 11;

/// An independent generator seed for purpose `salt`, so that seeds 1, 2,
/// 3… give unrelated inputs (one SplitMix64 step).
pub fn sub_seed(seed: u64, salt: u64) -> u64 {
    let mut z = seed.wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Property checks on a pass's outputs. Each call is one operation of
/// the `attempted` / `failed` counts.
#[derive(Debug, Default, Clone)]
pub struct Checks {
    /// Checks evaluated.
    pub attempted: u64,
    /// What failed, one line each.
    pub failures: Vec<String>,
}

impl Checks {
    /// Record one check; `what` is rendered only on failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    /// Fold another set of checks into this one.
    pub fn absorb(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failures.extend(other.failures);
    }
}

/// What one pass of a workload's timed section produced.
#[derive(Default)]
pub struct Outcome {
    /// Property checks on the outputs.
    pub checks: Checks,
    /// Simulated results and work counts. All are functions of the input
    /// alone, so they must repeat bit for bit on every pass.
    pub exact: Vec<(&'static str, f64)>,
    /// Simulated seconds the pass covered (0 when nothing is simulated).
    pub sim_seconds: f64,
    /// Checks too slow to sit inside the timed section; the runner calls
    /// this once the pass's wall time is taken.
    pub deferred: Option<Box<dyn FnOnce() -> Checks>>,
}

impl Outcome {
    /// The exact value named `key` (0 when the workload has none).
    pub fn get(&self, key: &str) -> f64 {
        self.exact.iter().find(|(k, _)| *k == key).map_or(0.0, |&(_, v)| v)
    }
}

/// What a traced run hands to [`Workload::layers`].
pub struct LayerCtx<'a> {
    /// Outcome of the last pass.
    pub outcome: &'a Outcome,
    /// Median wall time of the untraced passes, seconds.
    pub wall_s: f64,
    /// The run's `--seed`.
    pub seed: u64,
}

/// A prepared workload: its generated input plus how to run it.
pub trait Workload {
    /// One pass of the timed section. `tr` records a span around every
    /// call into a layer when it is on.
    fn pass(&self, tr: &mut Tracer) -> Outcome;

    /// Per-layer metrics of a traced run: counts and rates derived from
    /// the workload's own passes, plus probes of the layers that carry
    /// its work, run on its own input. Metrics of layers this workload
    /// does not exercise are left out (and reported as 0).
    fn layers(&self, ctx: &LayerCtx, tr: &mut Tracer) -> Vec<(&'static str, f64)>;
}

/// Build the input of workload `name` from `seed`. `smoke` shrinks every
/// size so the self-tests finish in seconds.
pub fn prepare(name: &str, seed: u64, smoke: bool) -> Option<Box<dyn Workload>> {
    Some(match name {
        "packet-figs" => Box::new(PacketFigs::new(seed, smoke)),
        "fluid-boot" => Box::new(Fluid::boot(seed, smoke)),
        "fluid-churn" => Box::new(Fluid::churn(seed, smoke)),
        "fluid-isp1k" => Box::new(Fluid::isp1k(seed, smoke)),
        "node-fleet" => Box::new(NodeFleet::new(seed, smoke)),
        "verify-transport" => Box::new(VerifyTransport::new(smoke)),
        _ => return None,
    })
}

/// Checks every simulator report must pass.
fn check_report(checks: &mut Checks, what: &str, rep: &SimReport) {
    let d = rep.mean_delay_ms();
    checks.check(d.is_finite() && d > 0.0, || format!("{what}: mean delay {d} ms"));
    checks.check(rep.delivered > 0, || format!("{what}: nothing delivered"));
}

/// Recorded control-plane events of a run with the observer on:
/// `[events, route changes, allocation shifts]`.
type Telemetry = [f64; 3];

fn telemetry_counts(rep: &SimReport) -> Telemetry {
    let Some(t) = &rep.telemetry else { return [0.0; 3] };
    let recorded = t.recorded.as_deref().unwrap_or(&[]);
    let count = |f: fn(&SimEvent) -> bool| recorded.iter().filter(|e| f(e)).count() as f64;
    [
        t.events as f64,
        count(|e| matches!(e, SimEvent::RouteChange { .. })),
        count(|e| matches!(e, SimEvent::AllocShift { .. })),
    ]
}

/// The `sim.telemetry.*` metrics: one extra pass with the recording
/// observer on, against the median observer-off wall time.
fn telemetry_layers(
    run: impl FnOnce(ObserverMode) -> Telemetry,
    wall_off_s: f64,
) -> Vec<(&'static str, f64)> {
    let t = std::time::Instant::now();
    let [events, route_changes, alloc_shifts] = run(ObserverMode::Recording { data_plane: false });
    let wall_on_s = t.elapsed().as_secs_f64();
    vec![
        ("sim.telemetry.overhead_ratio", wall_on_s / wall_off_s),
        ("sim.telemetry.events", events),
        ("sim.telemetry.route_changes", route_changes),
        ("sim.telemetry.alloc_shifts", alloc_shifts),
    ]
}

// ---------------------------------------------------------------------
// packet-figs
// ---------------------------------------------------------------------

struct Net {
    name: &'static str,
    topo: Topology,
    traffic: TrafficMatrix,
    models: Vec<Mm1>,
}

/// CAIRN and NET1 at the figure loads × {OPT, MP-TL-10-TS-2, SP-TL-10}
/// in the packet engine, six runs in series.
pub struct PacketFigs {
    nets: Vec<Net>,
    base: SimConfig,
}

impl PacketFigs {
    fn new(seed: u64, smoke: bool) -> Self {
        let (warmup, duration) = if smoke { (1.0, 1.0) } else { (10.0, 6.0) };
        let base = SimConfig { warmup, duration, seed: sub_seed(seed, 1), ..Default::default() };
        let net = |name, topo: Topology, flows: Vec<mdr_net::Flow>| {
            let traffic = TrafficMatrix::from_flows(&topo, &flows).expect("paper flows are valid");
            let models = topo
                .links()
                .iter()
                .map(|l| Mm1::new(l.capacity, l.prop_delay, base.mean_packet_bits))
                .collect();
            Net { name, topo, traffic, models }
        };
        let cairn = topo::cairn();
        let cairn_flows = topo::cairn_flows(&cairn, 4.0e6);
        let nets = vec![
            net("cairn", cairn, cairn_flows),
            net("net1", topo::net1(), topo::net1_flows(2.5e6)),
        ];
        PacketFigs { nets, base }
    }

    /// One pass under `observer`; also returns the summed telemetry
    /// counts of the six runs.
    fn run(&self, tr: &mut Tracer, observer: ObserverMode) -> (Outcome, Telemetry) {
        let mut out = Outcome::default();
        let (mut mp_ms, mut ratio, mut ctrl_bytes, mut events, mut delivered, mut iters) =
            (0.0, 0.0, 0u64, 0u64, 0u64, 0usize);
        let mut tele = [0.0; 3];
        for net in &self.nets {
            // The facade's default step size for Gallager's solver
            // (`mdr::scheme`): η ≈ (total offered rate)² · 2e-7.
            let r = net.traffic.total_rate().max(1.0);
            let cfg = GallagerConfig { eta: r * r * 2e-7, max_iters: 5000, tol: 1e-10 };
            let s = tr.begin("opt.solve");
            let sol = mdr_opt::solve(&net.topo, &net.models, &net.traffic, cfg);
            tr.end(s);
            let Ok(sol) = sol else {
                out.checks.check(false, || format!("{}: OPT has no feasible solution", net.name));
                continue;
            };
            iters += sol.iterations;
            let arms = [
                ("OPT", SimConfig { fixed_routing: Some(sol.vars), ..self.base.clone() }),
                ("MP", SimConfig { mode: Mode::Multipath, ..self.base.clone() }),
                ("SP", SimConfig { mode: Mode::SinglePath, ..self.base.clone() }),
            ];
            let mut delay = [0.0; 3];
            for (slot, (arm, cfg)) in delay.iter_mut().zip(arms) {
                let adaptive = cfg.fixed_routing.is_none();
                let cfg = SimConfig { observer: observer.clone(), ..cfg };
                let s = tr.begin("sim.engine.run");
                let mut sim = Simulator::new(&net.topo, &net.traffic, &Scenario::new(), cfg);
                let rep = sim.run();
                tr.end(s);
                let what = format!("{} {arm}", net.name);
                check_report(&mut out.checks, &what, &rep);
                if adaptive {
                    let loop_free =
                        lfi::check_loop_freedom_with(net.topo.node_count(), |i| sim.router(i));
                    out.checks.check(loop_free.is_ok(), || format!("{what}: {loop_free:?}"));
                }
                *slot = rep.mean_delay_ms();
                ctrl_bytes += rep.control_bytes;
                events += rep.events_processed;
                delivered += rep.delivered;
                for (sum, n) in tele.iter_mut().zip(telemetry_counts(&rep)) {
                    *sum += n;
                }
            }
            let [opt, mp, sp] = delay;
            out.checks.check(mp <= sp, || format!("{}: MP {mp} ms > SP {sp} ms", net.name));
            mp_ms += mp / self.nets.len() as f64;
            ratio += mp / opt / self.nets.len() as f64;
        }
        out.sim_seconds = 3.0 * self.nets.len() as f64 * (self.base.warmup + self.base.duration);
        out.exact = vec![
            ("mean_delay_ms", mp_ms),
            ("mp_over_opt", ratio),
            ("ctrl_bytes", ctrl_bytes as f64),
            ("events", events as f64),
            ("delivered", delivered as f64),
            ("opt_iters", iters as f64),
        ];
        (out, tele)
    }
}

impl Workload for PacketFigs {
    fn pass(&self, tr: &mut Tracer) -> Outcome {
        self.run(tr, ObserverMode::Off).0
    }

    fn layers(&self, ctx: &LayerCtx, tr: &mut Tracer) -> Vec<(&'static str, f64)> {
        let events = ctx.outcome.get("events");
        let mut m = vec![
            ("result.mean_delay_ms", ctx.outcome.get("mean_delay_ms")),
            ("result.mp_over_opt", ctx.outcome.get("mp_over_opt")),
            ("result.ctrl_bytes", ctx.outcome.get("ctrl_bytes")),
            ("opt.solve_s", tr.total_s("opt.solve")),
            ("opt.iters", ctx.outcome.get("opt_iters")),
            ("sim.engine.events", events),
            ("sim.engine.events_per_s", events / ctx.wall_s),
            ("sim.engine.ns_per_event", ctx.wall_s * 1e9 / events),
            ("sim.events.push_pop_ns", probes::event_queue_ns(tr, ctx.seed)),
        ];
        m.extend(telemetry_layers(|obs| self.run(&mut Tracer::off(), obs).1, ctx.wall_s));
        m
    }
}

// ---------------------------------------------------------------------
// fluid-boot, fluid-churn, fluid-isp1k
// ---------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq)]
enum FluidKind {
    Boot,
    Churn,
    Isp1k,
}

/// One fluid-engine run: a generated topology under MP.
pub struct Fluid {
    kind: FluidKind,
    topo: Topology,
    traffic: TrafficMatrix,
    scenario: Scenario,
    cfg: SimConfig,
}

/// A Barabási–Albert graph with gravity traffic between 40 sampled
/// endpoints (the `scale` experiment's recipe).
fn ba_with_gravity(n: usize) -> (Topology, TrafficMatrix) {
    let topo = gen::barabasi_albert(n, 2, GEN_SEED);
    let endpoints: Vec<NodeId> = topo.nodes().step_by((n / 40).max(1)).take(40).collect();
    let flows = gen::gravity_flows(&endpoints, 2, 4.5e7, GEN_SEED);
    let traffic = TrafficMatrix::from_flows(&topo, &flows).expect("generated flows are valid");
    (topo, traffic)
}

impl Fluid {
    fn cfg(sim_mode: SimMode, warmup: f64, duration: f64, seed: u64) -> SimConfig {
        SimConfig { sim_mode, warmup, duration, seed: sub_seed(seed, 1), ..Default::default() }
    }

    /// The cold-start flood: every router learns the whole graph.
    fn boot(seed: u64, smoke: bool) -> Self {
        let (topo, traffic) = ba_with_gravity(if smoke { 40 } else { 400 });
        let cfg = Self::cfg(SimMode::Fluid, 2.0, 1.0, seed);
        Fluid { kind: FluidKind::Boot, topo, traffic, scenario: Scenario::new(), cfg }
    }

    /// Steady state with `T_l` updates and four scripted link
    /// fail/restore pairs: many small `Change`/`Delete` LSUs.
    fn churn(seed: u64, smoke: bool) -> Self {
        let (topo, traffic) = ba_with_gravity(if smoke { 40 } else { 240 });
        let (warmup, duration) = if smoke { (2.0, 4.0) } else { (6.0, 10.0) };
        // The failing links are a fixed draw among the access links (one
        // end of degree 2). Which links fail moves the LSU count by a
        // quarter (18 k to 23 k over four draws), so `--seed` is kept out
        // of it; timer phases alone still move it by ±6 %. One link is
        // down at a time, and a BA graph with m = 2 is 2-edge-connected,
        // so the network never partitions.
        let access: Vec<_> =
            topo.links().iter().filter(|l| l.from < l.to && topo.degree(l.to) == 2).collect();
        let mut rng = SmallRng::seed_from_u64(sub_seed(GEN_SEED, 4));
        let mut scenario = Scenario::new();
        for pair in 0..4 {
            let l = access[rng.gen_range(0..access.len())];
            let fail_at = warmup + duration * (0.05 + 0.24 * pair as f64);
            scenario = scenario
                .at(fail_at, ScenarioEvent::FailLink { a: l.from, b: l.to })
                .at(fail_at + duration * 0.12, ScenarioEvent::RestoreLink { a: l.from, b: l.to });
        }
        let cfg = Self::cfg(SimMode::Fluid, warmup, duration, seed);
        Fluid { kind: FluidKind::Churn, topo, traffic, scenario, cfg }
    }

    /// 1000 routers under the quiescent control plane: settles and
    /// per-epoch reverse Dijkstra, no LSUs at all.
    fn isp1k(seed: u64, smoke: bool) -> Self {
        let (backbone, flows) = if smoke { (5, 40) } else { (50, 1000) };
        let topo = gen::two_tier_isp(backbone, 19, GEN_SEED);
        let nodes: Vec<NodeId> = topo.nodes().collect();
        let rate = 3.0e8 * flows as f64 / 1000.0;
        let flows = gen::elephant_mice_flows(&nodes, flows, rate, 0.7, GEN_SEED);
        let traffic = TrafficMatrix::from_flows(&topo, &flows).expect("generated flows are valid");
        let (warmup, duration) = if smoke { (2.0, 2.0) } else { (10.0, 10.0) };
        let cfg = Self::cfg(SimMode::FluidQuiescent, warmup, duration, seed);
        Fluid { kind: FluidKind::Isp1k, topo, traffic, scenario: Scenario::new(), cfg }
    }

    fn run(&self, tr: &mut Tracer, observer: ObserverMode) -> (Outcome, Telemetry) {
        let cfg = SimConfig { observer, ..self.cfg.clone() };
        let s = tr.begin("sim.fluid.new");
        let mut sim = FluidSimulator::new(&self.topo, &self.traffic, &self.scenario, cfg);
        tr.end(s);
        let s = tr.begin("sim.fluid.run");
        let rep = sim.run();
        tr.end(s);
        let mut out = Outcome::default();
        check_report(&mut out.checks, "fluid", &rep);
        if self.cfg.sim_mode == SimMode::Fluid {
            let loop_free = lfi::check_loop_freedom_with(self.topo.node_count(), |i| sim.router(i));
            out.checks.check(loop_free.is_ok(), || format!("fluid end state: {loop_free:?}"));
        }
        out.sim_seconds = self.cfg.warmup + self.cfg.duration;
        out.exact = vec![
            ("mean_delay_ms", rep.mean_delay_ms()),
            ("ctrl_bytes", rep.control_bytes as f64),
            ("ctrl_msgs", rep.control_messages as f64),
            ("events", rep.events_processed as f64),
            ("delivered", rep.delivered as f64),
            ("dropped", rep.dropped as f64),
        ];
        let tele = telemetry_counts(&rep);
        (out, tele)
    }
}

impl Workload for Fluid {
    fn pass(&self, tr: &mut Tracer) -> Outcome {
        self.run(tr, ObserverMode::Off).0
    }

    fn layers(&self, ctx: &LayerCtx, tr: &mut Tracer) -> Vec<(&'static str, f64)> {
        let mut m = vec![("result.mean_delay_ms", ctx.outcome.get("mean_delay_ms"))];
        if self.kind == FluidKind::Isp1k {
            // Each processed event of the quiescent control plane is one
            // routing epoch; no `routing.*` probe runs here, which is the
            // "no change" prediction for a control-plane optimisation.
            m.push(("sim.fluid.epoch_ms", ctx.wall_s * 1e3 / ctx.outcome.get("events")));
            return m;
        }
        let msgs = ctx.outcome.get("ctrl_msgs");
        m.extend([
            ("result.ctrl_bytes", ctx.outcome.get("ctrl_bytes")),
            ("sim.fluid.ctrl_msgs", msgs),
            ("sim.fluid.lsu_per_s", msgs / ctx.wall_s),
            ("sim.fluid.us_per_lsu", ctx.wall_s * 1e6 / msgs),
        ]);
        let changes = if self.kind == FluidKind::Churn { 50 } else { 0 };
        let p = probes::mpda(&self.topo, changes, ctx.seed, tr);
        // What the bare routing layer would cost for this run's LSU
        // count, as a share of the run; the rest is engine glue
        // (`apply_router_output`, refresh of every destination, settle).
        let share = msgs * p.mean_us / 1e6 / ctx.wall_s;
        m.extend(p.metrics);
        m.extend([
            ("routing.spf.dijkstra_us", probes::dijkstra_us(&self.topo, tr)),
            ("routing.share_est", share),
            ("sim.fluid.glue_share_est", 1.0 - share),
        ]);
        if self.kind == FluidKind::Churn {
            let (ih, ah) = probes::allocator_us(self.topo.node_count(), tr);
            m.extend([("flow.ih_us", ih), ("flow.ah_us", ah)]);
            m.extend(telemetry_layers(|obs| self.run(&mut Tracer::off(), obs).1, ctx.wall_s));
        }
        m
    }
}

// ---------------------------------------------------------------------
// verify-transport
// ---------------------------------------------------------------------

/// The exhaustive transport checker over two tier-1 scenarios: the same
/// `PeerChannel` step functions the fleet streams through, driven by
/// clone / `encode_state` / branching exploration instead.
pub struct VerifyTransport {
    scenarios: Vec<TScenario>,
}

impl VerifyTransport {
    /// The scenarios are the checker's own fixed suite entries: this is
    /// the one workload whose input does not depend on the seed.
    fn new(smoke: bool) -> Self {
        let wanted: &[&str] = if smoke {
            &["pair-crash-restart"]
        } else {
            &["pair-session-reset", "triangle-restart-quarantine"]
        };
        let scenarios =
            transport::suite().into_iter().filter(|s| wanted.contains(&s.name)).collect();
        VerifyTransport { scenarios }
    }
}

impl Workload for VerifyTransport {
    fn pass(&self, tr: &mut Tracer) -> Outcome {
        let mut out = Outcome::default();
        let (mut states, mut transitions) = (0usize, 0usize);
        out.checks.check(!self.scenarios.is_empty(), || "no checker scenario found".to_string());
        for s in &self.scenarios {
            let span = tr.begin("lint.transport.explore");
            let explored = transport::explore(s, ChannelMutant::None, true);
            tr.end(span);
            let st = explored.stats();
            out.checks.check(matches!(explored, Explored::Holds(_)), || {
                format!("{}: invariants do not hold: {explored:?}", s.name)
            });
            out.checks.check(!st.truncated, || format!("{}: exploration truncated", s.name));
            states += st.states;
            transitions += st.transitions;
        }
        out.exact = vec![("states", states as f64), ("transitions", transitions as f64)];
        out
    }

    fn layers(&self, ctx: &LayerCtx, tr: &mut Tracer) -> Vec<(&'static str, f64)> {
        let states = ctx.outcome.get("states");
        vec![
            ("lint.transport.states", states),
            ("lint.transport.transitions", ctx.outcome.get("transitions")),
            ("lint.transport.states_per_s", states / ctx.wall_s),
            ("node.reliable.encode_state_ns", probes::encode_state_ns(tr)),
        ]
    }
}
