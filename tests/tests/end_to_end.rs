//! End-to-end integration: the full stack (topology → MPDA → IH/AH →
//! packet simulator → measurements) reproduces the paper's headline
//! inequalities on a scale small enough for the default test profile.

use mdr::prelude::*;

/// A diamond where one flow exceeds any single path: the canonical
/// multipath win.
fn diamond() -> (Topology, Vec<Flow>) {
    let mut b = TopologyBuilder::new();
    let a = b.add_node("a");
    let x = b.add_node("x");
    let y = b.add_node("y");
    let z = b.add_node("z");
    let t = b
        .bidi(a, x, 1_000_000.0, 0.001)
        .bidi(a, y, 1_000_000.0, 0.001)
        .bidi(x, z, 1_000_000.0, 0.001)
        .bidi(y, z, 1_000_000.0, 0.001)
        .build()
        .unwrap();
    let flows = vec![Flow::new(a, z, 1_200_000.0)];
    (t, flows)
}

fn quick() -> SimConfig {
    SimConfig { warmup: 10.0, duration: 20.0, seed: 3, ..Default::default() }
}

/// The saturating diamond needs a longer warm-up: AH takes several
/// `T_s` periods to balance, and the backlog built before that
/// persists. 40 s absorbs even unlucky tick phasings where the split
/// oscillates for a while before settling (seed 3 is one such).
fn diamond_cfg() -> SimConfig {
    SimConfig { warmup: 40.0, duration: 30.0, seed: 3, ..Default::default() }
}

/// `scheme` over `t` carrying `flows`, perturbed by `scen`.
fn run(t: &Topology, flows: &[Flow], scheme: Scheme, cfg: SimConfig, scen: &Scenario) -> SimReport {
    let traffic = TrafficMatrix::from_flows(t, flows).unwrap();
    scheme.job(t, &traffic, cfg).unwrap().with_scenario(scen).run()
}

/// OPT's analytic solution, as `Scheme::Opt` solves it before the run.
fn opt_analytic(t: &Topology, flows: &[Flow]) -> mdr::opt::Evaluation {
    let traffic = TrafficMatrix::from_flows(t, flows).unwrap();
    let models: Vec<Mm1> =
        t.links().iter().map(|l| Mm1::new(l.capacity, l.prop_delay, 1000.0)).collect();
    let r = traffic.total_rate();
    let cfg = GallagerConfig { eta: r * r * 2e-7, max_iters: 5000, tol: 1e-10 };
    mdr::opt::solve(t, &models, &traffic, cfg).unwrap().eval
}

#[test]
fn multipath_beats_single_path_when_one_path_saturates() {
    let (t, flows) = diamond();
    let mp = run(&t, &flows, Scheme::mp(10.0, 1.0), diamond_cfg(), &Scenario::new());
    let sp = run(&t, &flows, Scheme::sp(10.0), diamond_cfg(), &Scenario::new());
    assert!(
        sp.mean_delay_ms() > 3.0 * mp.mean_delay_ms(),
        "SP {} ms vs MP {} ms",
        sp.mean_delay_ms(),
        mp.mean_delay_ms()
    );
}

#[test]
fn mp_tracks_opt_on_diamond() {
    let (t, flows) = diamond();
    let opt = run(&t, &flows, Scheme::Opt, diamond_cfg(), &Scenario::new());
    let mp = run(&t, &flows, Scheme::mp(10.0, 1.0), diamond_cfg(), &Scenario::new());
    assert!(
        mp.mean_delay_ms() < 10.0 * opt.mean_delay_ms(),
        "MP {} ms vs OPT {} ms",
        mp.mean_delay_ms(),
        opt.mean_delay_ms()
    );
    // OPT splits evenly on the symmetric diamond.
    let eval = opt_analytic(&t, &flows);
    assert!(eval.max_utilization < 0.7);
}

#[test]
fn loop_freedom_no_ttl_drops_across_schemes_and_failures() {
    let t = topo::net1();
    let flows = topo::net1_flows(1_500_000.0);
    let scen = Scenario::new()
        .at(6.0, ScenarioEvent::FailLink { a: NodeId(4), b: NodeId(5) })
        .at(12.0, ScenarioEvent::RestoreLink { a: NodeId(4), b: NodeId(5) });
    for scheme in [Scheme::mp(5.0, 1.0), Scheme::sp(5.0)] {
        let cfg = SimConfig { warmup: 8.0, duration: 10.0, seed: 5, ..Default::default() };
        let rep = run(&t, &flows, scheme, cfg, &scen);
        let ttl: u64 = rep.flows.iter().map(|f| f.dropped_ttl).sum();
        assert_eq!(ttl, 0, "{}: packets looped", scheme.label());
        assert!(rep.delivered > 10_000);
    }
}

#[test]
fn deterministic_end_to_end() {
    let t = topo::net1();
    let flows = topo::net1_flows(800_000.0);
    let a = run(&t, &flows, Scheme::mp(10.0, 2.0), quick(), &Scenario::new());
    let b = run(&t, &flows, Scheme::mp(10.0, 2.0), quick(), &Scenario::new());
    assert_eq!(a.mean_delays_ms, b.mean_delays_ms);
    assert_eq!(a.control_messages, b.control_messages);
}

#[test]
fn light_load_all_schemes_equivalent() {
    // "When connectivity is low or network load is light, MP routing
    // cannot offer any advantage over SP" — at 100 kb/s per flow all
    // three schemes ride the shortest paths.
    let t = topo::net1();
    let flows = topo::net1_flows(100_000.0);
    let opt = run(&t, &flows, Scheme::Opt, quick(), &Scenario::new());
    let mp = run(&t, &flows, Scheme::mp(10.0, 2.0), quick(), &Scenario::new());
    let sp = run(&t, &flows, Scheme::sp(10.0), quick(), &Scenario::new());
    for (a, b) in
        [(mp.mean_delay_ms(), opt.mean_delay_ms()), (sp.mean_delay_ms(), mp.mean_delay_ms())]
    {
        let ratio = a / b;
        assert!((0.9..1.1).contains(&ratio), "ratio {ratio}");
    }
}

#[test]
fn dynamic_rate_change_applies() {
    let t = topo::net1();
    let flows = topo::net1_flows(500_000.0);
    // Kill all traffic mid-run; deliveries must stop growing.
    let mut scen = Scenario::new();
    for i in 0..flows.len() {
        scen = scen.at(15.0, ScenarioEvent::SetFlowRate { flow: i, rate: 0.0 });
    }
    let cfg = SimConfig { warmup: 5.0, duration: 20.0, seed: 2, ..Default::default() };
    let rep = run(&t, &flows, Scheme::mp(10.0, 2.0), cfg, &scen);
    // ~10 s of traffic at 5 Mb/s total = ~50k packets, not ~100k.
    assert!(rep.delivered < 70_000, "delivered {}", rep.delivered);
    assert!(rep.delivered > 30_000);
}

#[test]
fn analytic_and_measured_delays_agree_for_fixed_routing() {
    // The simulator's physics match the M/M/1 analytic model when the
    // routing is pinned (Kleinrock independence holds well at this
    // scale) — the cross-validation that justifies comparing measured
    // MP/SP against OPT.
    let t = topo::net1();
    let flows = topo::net1_flows(1_200_000.0);
    let r = run(&t, &flows, Scheme::Opt, quick(), &Scenario::new());
    let analytic = opt_analytic(&t, &flows);
    for (m, a) in r.mean_delays_ms.iter().zip(&analytic.flow_delays) {
        let a_ms = a * 1000.0;
        assert!((m - a_ms).abs() / a_ms < 0.2, "measured {m} ms vs analytic {a_ms} ms");
    }
}
