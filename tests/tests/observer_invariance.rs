//! Telemetry must be a pure observer: attaching a recording observer,
//! with or without the data plane, to any scenario must leave every
//! measured field of the [`SimReport`] bit-identical to the
//! observer-off run. This is asserted, not assumed, across
//! steady-state, scenario-driven, and chaos-driven runs. The event
//! stream's faults and recoveries must also be the report's fault
//! records, one to one.

use mdr::prelude::*;

/// Drop the telemetry field so observer-on and observer-off reports can
/// be compared wholesale.
fn strip(mut r: SimReport) -> SimReport {
    r.telemetry = None;
    r
}

/// The scenario grid: each entry is a fully configured job with the
/// observer off.
fn scenario_grid() -> Vec<(&'static str, SimJob)> {
    let mut out = Vec::new();

    // Two routers, one flow — the minimal data path.
    let mut b = TopologyBuilder::new();
    let a = b.add_node("a");
    let z = b.add_node("z");
    let t = b.bidi(a, z, 1e7, 0.001).build().unwrap();
    let traffic = TrafficMatrix::from_flows(&t, &[Flow::new(a, z, 2_000_000.0)]).unwrap();
    let cfg = SimConfig { warmup: 2.0, duration: 4.0, seed: 5, ..Default::default() };
    out.push(("two_node", SimJob::new(&t, &traffic, cfg)));

    // CAIRN multipath with a mid-run traffic burst.
    let t = topo::cairn();
    let flows = topo::cairn_flows(&t, 1_500_000.0);
    let traffic = TrafficMatrix::from_flows(&t, &flows).unwrap();
    let scen = Scenario::new()
        .at(5.0, ScenarioEvent::SetFlowRate { flow: 2, rate: 3_000_000.0 })
        .at(8.0, ScenarioEvent::SetFlowRate { flow: 2, rate: 1_500_000.0 });
    let cfg = SimConfig { warmup: 4.0, duration: 8.0, seed: 7, ..Default::default() };
    out.push(("cairn_burst", SimJob::new(&t, &traffic, cfg).with_scenario(&scen)));

    // A triangle losing and regaining its direct edge.
    let mut b = TopologyBuilder::new();
    let x = b.add_node("x");
    let y = b.add_node("y");
    let z = b.add_node("z");
    let t = b.bidi(x, y, 1e7, 0.001).bidi(y, z, 1e7, 0.001).bidi(x, z, 1e7, 0.001).build().unwrap();
    let traffic = TrafficMatrix::from_flows(&t, &[Flow::new(x, z, 3_000_000.0)]).unwrap();
    let scen = Scenario::new()
        .at(4.0, ScenarioEvent::FailLink { a: x, b: z })
        .at(7.0, ScenarioEvent::RestoreLink { a: x, b: z });
    let cfg = SimConfig { warmup: 2.0, duration: 8.0, seed: 13, ..Default::default() };
    out.push(("triangle_failure", SimJob::new(&t, &traffic, cfg.clone()).with_scenario(&scen)));

    // The same triangle in the fluid engine, whose report also carries
    // its work counts (`SimReport::fluid`).
    let cfg = SimConfig { sim_mode: SimMode::Fluid, ..cfg };
    out.push(("triangle_failure_fluid", SimJob::new(&t, &traffic, cfg).with_scenario(&scen)));

    // NET1 under the full chaos stack with invariant auditing on.
    let t = topo::net1();
    let flows = topo::net1_flows(800_000.0);
    let traffic = TrafficMatrix::from_flows(&t, &flows).unwrap();
    let plan = FaultPlan {
        seed: 0xBEEF,
        start: 2.0,
        link_faults: Some(FaultProcess { mtbf: 10.0, mttr: 1.0 }),
        router_faults: Some(FaultProcess { mtbf: 25.0, mttr: 1.5 }),
        control: Some(ControlChaos::default()),
        profile: None,
    };
    let cfg = SimConfig {
        warmup: 4.0,
        duration: 8.0,
        seed: 11,
        fault_plan: Some(plan),
        audit_invariants: true,
        ..Default::default()
    };
    out.push(("net1_chaos", SimJob::new(&t, &traffic, cfg)));

    out
}

/// Every observer flavor attached to every scenario: telemetry present
/// and non-trivial, everything else bit-identical to observer-off.
#[test]
fn every_observer_leaves_every_scenario_bit_identical() {
    for (name, job) in scenario_grid() {
        let off = job.run();
        assert!(off.telemetry.is_none(), "{name}: observer-off run must carry no telemetry");
        let fluid = job.cfg.sim_mode != SimMode::Packet;
        assert_eq!(off.fluid.is_some(), fluid, "{name}: work counts exactly on fluid runs");
        assert!(off.fluid.is_none_or(|w| {
            w.dag_builds > 0 && w.rows_written > 0 && w.resolves > 0 && w.backward_rows > 0
        }));
        let modes = [
            ObserverMode::Recording { data_plane: true },
            ObserverMode::Recording { data_plane: false },
        ];
        for mode in modes {
            let mut on = job.clone();
            on.cfg.observer = mode.clone();
            let rep = on.run();
            let tel = rep.telemetry.clone().unwrap_or_else(|| {
                panic!("{name}/{mode:?}: observer attached but no telemetry reported")
            });
            assert!(tel.events > 0, "{name}/{mode:?}: observer saw no events");
            assert_eq!(
                strip(rep),
                off,
                "{name}/{mode:?}: attaching the observer changed the simulation"
            );
        }
    }
}

/// The recording observer with the data plane on must see strictly more
/// events than the control-plane-only one, and the extra events must
/// all be data-plane kinds.
#[test]
fn data_plane_filter_only_removes_data_plane_events() {
    let (_, job) = scenario_grid().swap_remove(1);
    let run = |data_plane: bool| {
        let mut j = job.clone();
        j.cfg.observer = ObserverMode::Recording { data_plane };
        j.run().telemetry.unwrap().recorded.unwrap()
    };
    let full = run(true);
    let control = run(false);
    assert!(full.len() > control.len(), "data plane must contribute events");
    assert!(
        control.iter().all(|ev| !ev.is_data_plane()),
        "filtered trace leaked data-plane events"
    );
    let filtered: Vec<_> = full.iter().filter(|ev| !ev.is_data_plane()).cloned().collect();
    assert_eq!(filtered, control, "filter must be exactly the data-plane predicate");
}

/// The `Fault` and `Recovery` events of the chaos run are its
/// [`RobustnessReport::faults`], one to one and bit for bit: every
/// record's injection time and event, and for every recovered record,
/// in record order, its fault time and recovery span.
#[test]
fn fault_events_match_the_robustness_records() {
    let (_, mut job) = scenario_grid().pop().unwrap();
    job.cfg.observer = ObserverMode::Recording { data_plane: false };
    let rep = job.run();
    let rob = rep.robustness.expect("chaos run carries robustness");
    let events = rep.telemetry.and_then(|t| t.recorded).expect("recording observer");
    let mut injected = Vec::new();
    let mut recovered = Vec::new();
    for ev in events {
        match ev {
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
    assert!(!spans.is_empty(), "no fault recovered: {:?}", rob.faults);
    assert_eq!(injected, records);
    assert_eq!(recovered, spans);
}
