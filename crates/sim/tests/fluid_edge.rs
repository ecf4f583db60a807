//! Edge-case behavior of the fluid flow-level engine: saturation,
//! degenerate traffic matrices, and agreement with the M/M/1 closed
//! forms where the equilibrium is computable by hand.

use mdr_net::{Flow, LinkDelayModel, Mm1, NodeId, Topology, TopologyBuilder, TrafficMatrix};
use mdr_sim::{
    FaultEvent, FaultPlan, FaultProcess, FluidSimulator, NetProfile, ObserverMode, PartitionSpec,
    RobustnessReport, Scenario, ScenarioEvent, SimConfig, SimEvent, SimMode, SimReport, Simulator,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A 3-node line `n0 — n1 — n2`, 10 Mb/s links, 1 ms propagation.
fn line3() -> Topology {
    TopologyBuilder::new()
        .nodes(3)
        .bidi(NodeId(0), NodeId(1), 1e7, 0.001)
        .bidi(NodeId(1), NodeId(2), 1e7, 0.001)
        .build()
        .unwrap()
}

fn fluid_cfg() -> SimConfig {
    SimConfig { warmup: 10.0, duration: 20.0, sim_mode: SimMode::Fluid, ..Default::default() }
}

fn run_fluid(t: &Topology, flows: &[Flow], cfg: SimConfig) -> SimReport {
    let traffic = TrafficMatrix::from_flows(t, flows).unwrap();
    FluidSimulator::new(t, &traffic, &Scenario::new(), cfg).run()
}

/// Shortest-path routing variables at idle costs.
fn sp_vars(t: &Topology) -> mdr_opt::RoutingVars {
    let models: Vec<Mm1> =
        t.links().iter().map(|l| Mm1::new(l.capacity, l.prop_delay, 1000.0)).collect();
    mdr_opt::shortest_path_vars(t, &models)
}

fn assert_all_finite(r: &SimReport) {
    for (fi, d) in r.mean_delays_ms.iter().enumerate() {
        assert!(d.is_finite() && *d >= 0.0, "flow {fi} mean delay {d} not finite/non-negative");
    }
    for (li, l) in r.links.iter().enumerate() {
        assert!(l.bits.is_finite() && l.bits >= 0.0, "link {li} bits {} bad", l.bits);
    }
    for f in &r.flows {
        assert!(f.delay_sum.is_finite() && f.delay_sum >= 0.0);
        assert!(f.max_delay.is_finite() && f.max_delay >= 0.0);
    }
}

/// Offered load 1.5x the only path's capacity: the M/M/1 affine
/// continuation and the survival fraction must keep every statistic
/// finite and non-negative — no NaN, no negative delay — while the
/// excess traffic lands in `dropped_congestion`.
#[test]
fn saturated_link_stays_finite() {
    let t = line3();
    let rate = 1.5e7; // 1.5x link capacity
    let r = run_fluid(&t, &[Flow::new(NodeId(0), NodeId(2), rate)], fluid_cfg());
    assert_all_finite(&r);

    // The link can carry at most C of the offered 1.5C, so at least a
    // third of the offered packets must be congestion drops (the solver
    // may shave slightly more while the control plane reprices).
    let offered = r.delivered + r.dropped;
    assert!(r.flows[0].dropped_congestion > 0, "saturation produced no congestion drops");
    assert!(
        r.dropped as f64 >= 0.30 * offered as f64,
        "only {} of {} offered packets dropped at 1.5x capacity",
        r.dropped,
        offered
    );
    // Delivered throughput cannot exceed capacity (in packets of the
    // configured mean length, with a small rounding allowance).
    let cap_pkts = 1e7 / 1000.0 * r.duration;
    assert!((r.delivered as f64) <= cap_pkts * 1.01);
    // And the reported delay sits at the affine continuation's level —
    // far above idle, but finite.
    let idle_ms = Mm1::new(1e7, 0.001, 1000.0).packet_delay(0.0) * 1000.0;
    assert!(r.mean_delay_ms() > idle_ms);
}

/// One flow on a line has exactly one routing solution, so the fluid
/// equilibrium delay must equal the M/M/1 closed form summed over the
/// two hops — a hand-computable anchor with zero modeling slack.
#[test]
fn single_flow_matches_mm1_closed_form() {
    let t = line3();
    let rate = 4e6;
    let r = run_fluid(&t, &[Flow::new(NodeId(0), NodeId(2), rate)], fluid_cfg());
    assert_all_finite(&r);

    let per_hop = Mm1::new(1e7, 0.001, 1000.0).packet_delay(rate);
    let expect_ms = 2.0 * per_hop * 1000.0;
    let got_ms = r.mean_delay_ms();
    assert!(
        (got_ms - expect_ms).abs() / expect_ms < 1e-9,
        "fluid {got_ms} ms vs closed form {expect_ms} ms"
    );
    // No drops, and the delivered count is the offered fluid mass.
    assert_eq!(r.dropped, 0);
    let offered_pkts = rate / 1000.0 * r.duration;
    assert!((r.delivered as f64 - offered_pkts).abs() <= 1.0);
}

/// Under fixed routing the fluid engine solves the analytic model: on
/// NET1 below saturation, under OPT's routing and under shortest-path
/// routing, every flow's fluid mean delay is `mdr_opt::evaluate`'s
/// per-flow delay.
#[test]
fn fixed_routing_matches_the_analytic_model() {
    let t = mdr_net::topo::net1();
    let traffic = TrafficMatrix::from_flows(&t, &mdr_net::topo::net1_flows(2e6)).unwrap();
    let cfg = fluid_cfg();
    let models: Vec<Mm1> = t
        .links()
        .iter()
        .map(|l| Mm1::new(l.capacity, l.prop_delay, cfg.mean_packet_bits))
        .collect();
    let r = traffic.total_rate();
    let opt_cfg = mdr_opt::GallagerConfig { eta: r * r * 2e-7, max_iters: 300, tol: 1e-10 };
    let opt = mdr_opt::solve(&t, &models, &traffic, opt_cfg).unwrap();
    for (name, vars) in [("OPT", opt.vars), ("SP", sp_vars(&t))] {
        let e = mdr_opt::evaluate(&t, &models, &traffic, &vars).unwrap();
        assert!(e.max_utilization < 1.0, "{name}: saturated");
        let cfg = SimConfig { fixed_routing: Some(vars), ..fluid_cfg() };
        let rep = FluidSimulator::new(&t, &traffic, &Scenario::new(), cfg).run();
        for (fi, (&ms, &d)) in rep.mean_delays_ms.iter().zip(&e.flow_delays).enumerate() {
            let fluid = ms / 1000.0;
            assert!((fluid - d).abs() / d < 1e-9, "{name} flow {fi}: fluid {fluid} s vs {d} s");
        }
    }
}

/// Zero-rate flows are legal inputs (scenarios may switch them on
/// later): they must produce zero deliveries and zero delay without
/// disturbing the live flow sharing their destination slot.
#[test]
fn zero_rate_flow_is_inert() {
    let t = line3();
    let flows = [
        Flow::new(NodeId(0), NodeId(2), 4e6),
        Flow::new(NodeId(1), NodeId(2), 0.0), // same destination, idle
        Flow::new(NodeId(2), NodeId(0), 0.0), // destination with no traffic at all
    ];
    let r = run_fluid(&t, &flows, fluid_cfg());
    assert_all_finite(&r);
    assert_eq!(r.flows[1].delivered, 0);
    assert_eq!(r.flows[2].delivered, 0);
    assert_eq!(r.mean_delays_ms[1], 0.0);
    assert_eq!(r.mean_delays_ms[2], 0.0);
    // The live flow still sees the single-flow closed form.
    let expect_ms = 2.0 * Mm1::new(1e7, 0.001, 1000.0).packet_delay(4e6) * 1000.0;
    assert!((r.mean_delays_ms[0] - expect_ms).abs() / expect_ms < 1e-9);
}

/// The quiescent (centralized) control plane must land on the same
/// equilibrium as the distributed one when the load is stationary —
/// it skips the LSU exchange, not the model.
#[test]
fn quiescent_control_plane_matches_distributed_fluid() {
    let t = line3();
    let flows = [Flow::new(NodeId(0), NodeId(2), 4e6), Flow::new(NodeId(2), NodeId(0), 2e6)];
    let dist = run_fluid(&t, &flows, fluid_cfg());
    let quiet =
        run_fluid(&t, &flows, SimConfig { sim_mode: SimMode::FluidQuiescent, ..fluid_cfg() });
    assert_all_finite(&quiet);
    for (fi, (a, b)) in dist.mean_delays_ms.iter().zip(&quiet.mean_delays_ms).enumerate() {
        assert!((a - b).abs() / a < 1e-6, "flow {fi}: distributed {a} ms vs quiescent {b} ms");
    }
}

/// A scripted event must land whichever control plane and routing the
/// run uses: a flow switched off half-way delivers half.
#[test]
fn scenario_events_apply_under_every_control_plane() {
    let t = line3();
    let traffic = TrafficMatrix::from_flows(&t, &[Flow::new(NodeId(0), NodeId(2), 1e6)]).unwrap();
    let off = Scenario::new().at(5.0, ScenarioEvent::SetFlowRate { flow: 0, rate: 0.0 });
    for sim_mode in [SimMode::Fluid, SimMode::FluidQuiescent] {
        for fixed_routing in [None, Some(sp_vars(&t))] {
            let what = format!("{sim_mode:?}, fixed routing {}", fixed_routing.is_some());
            let cfg =
                SimConfig { warmup: 1.0, duration: 9.0, sim_mode, fixed_routing, ..fluid_cfg() };
            let r = FluidSimulator::new(&t, &traffic, &off, cfg).run();
            assert_eq!(r.delivered, 4000, "{what}: 1000 packets/s from t = 1 s to t = 5 s");
            assert!(r.events_processed > 0, "{what}");
        }
    }
}

/// The row-patched DAG store against a whole build after *every* event
/// (`audit_dags`: a real assert, in any profile), over seeded random
/// interleavings of everything that can move a row: LSU floods, `T_s`
/// and `T_l` ticks, link failures and restores, rate changes. γ = 0
/// leaves AH renormalizing without moving anything, γ = 1 drains a
/// successor to zero in one tick, so rows shrink and orders move. The
/// same audit holds what was resolved over the store to a whole
/// re-resolve, bit for bit: a clean destination's link flows, the link
/// totals, and after a settle every flow's solution at its source —
/// so the resolve that skips clean destinations and walks only the
/// rows the sources reach is exact.
#[test]
fn patched_dags_equal_whole_builds_after_every_event() {
    let ba = mdr_net::gen::barabasi_albert(60, 2, 11);
    let ends: Vec<NodeId> = ba.nodes().step_by(8).collect();
    let ba_flows = mdr_net::gen::gravity_flows(&ends, 2, 4.0e7, 11);
    // The cold-start flood makes a BA-60 run four times a NET1 run.
    let nets = [
        ("net1", mdr_net::topo::net1(), mdr_net::topo::net1_flows(2.5e6), 2),
        ("ba60", ba, ba_flows, 1),
    ];
    for (name, t, flows, seeds) in &nets {
        let traffic = TrafficMatrix::from_flows(t, flows).unwrap();
        let physical: Vec<_> = t.links().iter().filter(|l| l.from < l.to).collect();
        for (gi, ah_gain) in [0.0, 0.4, 1.0].into_iter().enumerate() {
            for seed in [gi as u64, 7].into_iter().take(*seeds) {
                let mut rng = SmallRng::seed_from_u64(seed);
                let mut scenario = Scenario::new();
                for _ in 0..10 {
                    let l = physical[rng.gen_range(0..physical.len())];
                    let at = rng.gen_range(0.2..3.0);
                    let back = at + rng.gen_range(0.01..1.0);
                    let flow = rng.gen_range(0..flows.len());
                    let rate = [0.0, 1.0e6, 4.0e6][rng.gen_range(0..3usize)];
                    scenario = scenario
                        .at(at, ScenarioEvent::FailLink { a: l.from, b: l.to })
                        .at(back, ScenarioEvent::RestoreLink { a: l.to, b: l.from })
                        .at(rng.gen_range(0.2..3.5), ScenarioEvent::SetFlowRate { flow, rate });
                }
                let cfg = SimConfig {
                    warmup: 0.5,
                    duration: 3.0,
                    t_short: 0.1,
                    t_long: 0.5,
                    ah_gain,
                    seed,
                    ..fluid_cfg()
                };
                let audited = |cfg: SimConfig| {
                    let what = format!(
                        "{name} gain {ah_gain} seed {seed} fixed {}",
                        cfg.fixed_routing.is_some()
                    );
                    let mut sim = FluidSimulator::new(t, &traffic, &scenario, cfg);
                    let mut events = 0u64;
                    let report = sim.run_with(|sim| {
                        events += 1;
                        if let Err(e) = sim.audit_dags() {
                            panic!("{what}: after event {events} at t = {}: {e}", sim.now());
                        }
                    });
                    assert_eq!(events, report.events_processed, "{what}");
                    assert_all_finite(&report);
                    report.fluid.expect("a fluid run reports its work")
                };
                let work = audited(cfg.clone());
                let nd = flows.iter().map(|f| f.dst).collect::<std::collections::BTreeSet<_>>();
                assert_eq!(work.dag_builds, nd.len() as u64, "built once each, then patched");
                assert!(work.rows_written > 1000 && work.reorders > 0, "{work:?}");
                assert!(work.forward_passes < work.backward_passes, "{work:?}");
                assert!(work.backward_rows > 0, "{work:?}");
                // Fixed routes: link flips are all that moves a row.
                if gi == 0 {
                    let work = audited(SimConfig { fixed_routing: Some(sp_vars(t)), ..cfg });
                    assert_eq!(work.dag_builds, nd.len() as u64);
                    assert!(work.rows_written > 0);
                }
            }
        }
    }
}

/// Everything that can move a successor DAG, on one run: a link fails
/// and comes back twice (LSU floods each time), flow rates change —
/// once to zero and back — and `T_s` ticks run throughout, long enough
/// for AH to settle into moves far below the telemetry threshold. The
/// engine keeps each destination's DAG across settles and patches it by
/// row; in this profile every use is compared against a fresh build, so
/// a missed row write fails here. The fixed-routing control plane keeps
/// DAGs too and only link flips can move them.
#[test]
fn kept_dags_survive_interleaved_faults_rates_ticks_and_floods() {
    // Two unequal paths 0 → 3 (via 1 and via 2) plus a chord, so AH has
    // shares to trade and a failure has somewhere to reroute.
    let n = |i: u32| NodeId(i);
    let t = TopologyBuilder::new()
        .nodes(5)
        .bidi(n(0), n(1), 1e7, 0.001)
        .bidi(n(0), n(2), 1e7, 0.0013)
        .bidi(n(1), n(3), 1e7, 0.001)
        .bidi(n(2), n(3), 8e6, 0.001)
        .bidi(n(1), n(2), 1e7, 0.0005)
        .bidi(n(3), n(4), 1e7, 0.001)
        .build()
        .unwrap();
    let flows = [
        Flow::new(n(0), n(3), 5e6),
        Flow::new(n(0), n(4), 2e6),
        Flow::new(n(4), n(0), 3e6),
        Flow::new(n(1), n(2), 1e6),
    ];
    let traffic = TrafficMatrix::from_flows(&t, &flows).unwrap();
    let scenario = Scenario::new()
        .at(3.03, ScenarioEvent::FailLink { a: n(1), b: n(3) })
        .at(3.04, ScenarioEvent::SetFlowRate { flow: 0, rate: 6e6 })
        .at(5.51, ScenarioEvent::RestoreLink { a: n(1), b: n(3) })
        .at(5.52, ScenarioEvent::SetFlowRate { flow: 1, rate: 0.0 })
        .at(20.07, ScenarioEvent::FailLink { a: n(0), b: n(2) })
        .at(20.08, ScenarioEvent::SetFlowRate { flow: 1, rate: 2.5e6 })
        .at(20.09, ScenarioEvent::RestoreLink { a: n(0), b: n(2) })
        .at(21.0, ScenarioEvent::SetFlowRate { flow: 3, rate: 4e6 });
    let cfg = SimConfig { warmup: 1.0, duration: 39.0, t_short: 0.05, t_long: 0.5, ..fluid_cfg() };
    let run = |cfg: SimConfig| FluidSimulator::new(&t, &traffic, &scenario, cfg).run();

    let r = run(cfg.clone());
    assert_all_finite(&r);
    assert!(r.flows.iter().all(|f| f.delivered > 0));
    assert!(r.control_messages > 50, "the failures flooded LSUs");
    // The same run twice is the same run.
    let again = run(cfg.clone());
    assert_eq!(r.mean_delays_ms, again.mean_delays_ms);
    assert_eq!(r.control_bytes, again.control_bytes);

    let fixed = run(SimConfig { fixed_routing: Some(sp_vars(&t)), ..cfg });
    assert_all_finite(&fixed);
    assert!(fixed.flows[0].dropped_no_route > 0, "fixed routes lose the failed link's traffic");
}

/// `audit_invariants` in `SimMode::Fluid`, MP and SP on BA-60 through
/// four link failures and restores: the LFI auditor runs after every
/// routing-table change, finds nothing, and perturbs nothing — every
/// other report field equals the audit-off run's.
#[test]
fn fluid_mode_audits_lfi_without_perturbing_the_run() {
    let t = mdr_net::gen::barabasi_albert(60, 2, 5);
    let ends: Vec<NodeId> = t.nodes().step_by(6).collect();
    let flows = mdr_net::gen::gravity_flows(&ends, 2, 4.0e7, 5);
    let traffic = TrafficMatrix::from_flows(&t, &flows).unwrap();
    let physical: Vec<_> = t.links().iter().filter(|l| l.from < l.to).collect();
    let mut scenario = Scenario::new();
    for (k, l) in physical.iter().step_by(physical.len() / 4).take(4).enumerate() {
        let at = 1.0 + 0.7 * k as f64;
        scenario = scenario
            .at(at, ScenarioEvent::FailLink { a: l.from, b: l.to })
            .at(at + 0.4, ScenarioEvent::RestoreLink { a: l.to, b: l.from });
    }
    for mode in [mdr_flow::Mode::Multipath, mdr_flow::Mode::SinglePath] {
        let cfg = SimConfig {
            warmup: 0.5,
            duration: 4.0,
            t_short: 0.1,
            t_long: 0.5,
            mode,
            ..fluid_cfg()
        };
        let run = |cfg| FluidSimulator::new(&t, &traffic, &scenario, cfg).run();
        let base = run(cfg.clone());
        assert!(base.robustness.is_none());
        let mut audited = run(SimConfig { audit_invariants: true, ..cfg });
        let rob = audited.robustness.take().expect("an audited run reports robustness");
        assert!(rob.invariant_checks > 0, "{mode:?}");
        assert_eq!(rob.invariant_violations, 0, "{mode:?}: {:?}", rob.first_violation);
        assert_eq!(audited, base, "{mode:?}: the audit moved the run");
    }
}

/// A NaN or infinite run length never ends: both engines refuse it in
/// their constructors instead of looping.
#[test]
fn both_engines_refuse_an_endless_run() {
    let t = line3();
    let traffic = TrafficMatrix::from_flows(&t, &[Flow::new(NodeId(0), NodeId(2), 1e6)]).unwrap();
    let scen = Scenario::new();
    for (warmup, duration) in [(f64::NAN, 1.0), (1.0, f64::NAN), (1.0, f64::INFINITY)] {
        let cfg = SimConfig { warmup, duration, ..Default::default() };
        let fluid = SimConfig { sim_mode: SimMode::Fluid, ..cfg.clone() };
        let packet = std::panic::catch_unwind(|| Simulator::new(&t, &traffic, &scen, cfg).run());
        let fluid =
            std::panic::catch_unwind(|| FluidSimulator::new(&t, &traffic, &scen, fluid).run());
        for err in [packet.expect_err("packet engine"), fluid.expect_err("fluid engine")] {
            assert_eq!(err.downcast_ref::<&str>(), Some(&"run length must be finite"));
        }
    }
}

/// The quiescent control plane keeps no protocol state to audit.
#[test]
#[should_panic(expected = "FluidQuiescent keeps no protocol state")]
fn the_quiescent_control_plane_refuses_the_audit() {
    let t = line3();
    let cfg =
        SimConfig { sim_mode: SimMode::FluidQuiescent, audit_invariants: true, ..fluid_cfg() };
    run_fluid(&t, &[Flow::new(NodeId(0), NodeId(2), 1e6)], cfg);
}

/// Nor any protocol state for a fault plan to perturb.
#[test]
#[should_panic(expected = "FluidQuiescent keeps no protocol state")]
fn the_quiescent_control_plane_refuses_a_fault_plan() {
    let t = line3();
    let cfg = SimConfig {
        sim_mode: SimMode::FluidQuiescent,
        fault_plan: Some(FaultPlan::default()),
        ..fluid_cfg()
    };
    run_fluid(&t, &[Flow::new(NodeId(0), NodeId(2), 1e6)], cfg);
}

/// The `Fault` and `Recovery` events are the report's fault records,
/// one to one and bit for bit: every record's injection time and event,
/// and for every recovered record, in record order, its fault time and
/// recovery span.
fn assert_events_mirror_faults(events: &[SimEvent], rob: &RobustnessReport) {
    let mut injected = Vec::new();
    let mut recovered = Vec::new();
    for ev in events {
        match *ev {
            SimEvent::Fault { time, event } => injected.push((time.to_bits(), event)),
            SimEvent::Recovery { fault_time, recovery_s, .. } => {
                recovered.push((fault_time.to_bits(), recovery_s.to_bits()))
            }
            _ => {}
        }
    }
    let records: Vec<_> = rob.faults.iter().map(|f| (f.time.to_bits(), f.event)).collect();
    let spans: Vec<_> = rob
        .faults
        .iter()
        .filter_map(|f| f.recovery_s.map(|r| (f.time.to_bits(), r.to_bits())))
        .collect();
    assert_eq!(injected, records);
    assert_eq!(recovered, spans);
}

/// Loop-free at every instant through failures, in the fluid engine too:
/// `SimMode::Fluid` on BA-60 with random link failures and repairs plus
/// one scripted partition, audited after every routing-table change.
/// The audit finds nothing, faults recover, and the run is a function
/// of its inputs — the same on a rerun and with an observer attached,
/// whose fault events mirror the report's records.
#[test]
fn fluid_mode_runs_link_faults_and_a_partition_loop_free() {
    let t = mdr_net::gen::barabasi_albert(60, 2, 5);
    let ends: Vec<NodeId> = t.nodes().step_by(6).collect();
    let flows = mdr_net::gen::gravity_flows(&ends, 2, 4.0e7, 5);
    let traffic = TrafficMatrix::from_flows(&t, &flows).unwrap();
    let partition = PartitionSpec { at: 2.0, heal_at: 2.6, side: (50..60).map(NodeId).collect() };
    let plan = FaultPlan {
        seed: 17,
        start: 1.0,
        link_faults: Some(FaultProcess { mtbf: 60.0, mttr: 0.4 }),
        profile: Some(NetProfile { partitions: vec![partition], ..NetProfile::default() }),
        ..FaultPlan::default()
    };
    let cfg = SimConfig {
        warmup: 0.5,
        duration: 4.0,
        t_short: 0.1,
        t_long: 0.5,
        fault_plan: Some(plan),
        audit_invariants: true,
        ..fluid_cfg()
    };
    let run = |cfg: SimConfig| FluidSimulator::new(&t, &traffic, &Scenario::new(), cfg).run();
    let r = run(cfg.clone());
    assert_all_finite(&r);
    let rob = r.robustness.clone().expect("a fault plan reports robustness");
    assert!(rob.invariant_checks > 0);
    assert_eq!(rob.invariant_violations, 0, "{:?}", rob.first_violation);
    assert!(rob.recovered >= 1, "no fault recovered: {:?}", rob.faults);
    let kinds = |f: fn(&FaultEvent) -> bool| rob.faults.iter().filter(|r| f(&r.event)).count();
    assert!(kinds(|e| matches!(e, FaultEvent::FailLink { .. })) > 0, "{:?}", rob.faults);
    assert_eq!(kinds(|e| matches!(e, FaultEvent::PartitionCut { .. })), 1);
    assert_eq!(kinds(|e| matches!(e, FaultEvent::PartitionHeal { .. })), 1);
    assert_eq!(run(cfg.clone()), r, "the same run twice differs");
    let observed =
        run(SimConfig { observer: ObserverMode::Recording { data_plane: false }, ..cfg });
    let events = observed.telemetry.clone().and_then(|t| t.recorded).expect("recorded events");
    assert_events_mirror_faults(&events, &rob);
    assert_eq!(SimReport { telemetry: None, ..observed }, r, "the observer moved the run");
}

/// The fault layer is one: under the same fault plan on NET1 — link
/// failures, router crashes, control-channel chaos — the packet engine
/// and `SimMode::Fluid` inject the same faults at the same instants,
/// and both audits come back clean.
#[test]
fn both_engines_inject_one_fault_plan_the_same_way() {
    let t = mdr_net::topo::net1();
    let traffic = TrafficMatrix::from_flows(&t, &mdr_net::topo::net1_flows(4e5)).unwrap();
    let plan = FaultPlan {
        seed: 9,
        start: 3.0,
        link_faults: Some(FaultProcess { mtbf: 8.0, mttr: 1.0 }),
        router_faults: Some(FaultProcess { mtbf: 20.0, mttr: 1.5 }),
        control: Some(mdr_sim::ControlChaos::default()),
        profile: None,
    };
    let cfg = SimConfig {
        warmup: 5.0,
        duration: 15.0,
        fault_plan: Some(plan),
        audit_invariants: true,
        ..Default::default()
    };
    let packet = Simulator::new(&t, &traffic, &Scenario::new(), cfg.clone()).run();
    let fluid = FluidSimulator::new(
        &t,
        &traffic,
        &Scenario::new(),
        SimConfig { sim_mode: SimMode::Fluid, ..cfg },
    )
    .run();
    let faults = |r: &SimReport| {
        let rob = r.robustness.as_ref().expect("robustness report");
        assert!(rob.invariant_checks > 0);
        assert_eq!(rob.invariant_violations, 0, "{:?}", rob.first_violation);
        rob.faults.iter().map(|f| (f.time, f.event)).collect::<Vec<_>>()
    };
    let (p, f) = (faults(&packet), faults(&fluid));
    assert!(p.iter().any(|(_, e)| matches!(e, FaultEvent::CrashRouter { .. })), "{p:?}");
    assert!(p.iter().any(|(_, e)| matches!(e, FaultEvent::FailLink { .. })), "{p:?}");
    assert_eq!(p, f);
}
