//! The parallel batch harness must be a pure speed-up: running a batch
//! through `run_many` (or `par::parallel_map_with` at a fixed worker
//! count) on worker threads has to produce reports bit-identical to
//! running each job serially, and repeating the same seed has to
//! reproduce the same report field for field.

use mdr::prelude::*;
use mdr::sim::par;

/// CAIRN at a moderate load with a mid-run perturbation — exercises
/// data, control, estimator, and scenario paths, plus OPT's pinned
/// routing (`SimConfig::fixed_routing`), all built by `Scheme::job`.
fn jobs() -> Vec<SimJob> {
    let t = topo::cairn();
    let flows = topo::cairn_flows(&t, 1_500_000.0);
    let traffic = TrafficMatrix::from_flows(&t, &flows).expect("traffic");
    let scen = Scenario::new()
        .at(6.0, ScenarioEvent::SetFlowRate { flow: 2, rate: 3_000_000.0 })
        .at(9.0, ScenarioEvent::SetFlowRate { flow: 2, rate: 1_500_000.0 });
    let mut out = Vec::new();
    for seed in [1u64, 7, 42] {
        let cfg = SimConfig { warmup: 5.0, duration: 10.0, seed, ..Default::default() };
        let job = |s: Scheme| s.job(&t, &traffic, cfg.clone()).expect("scheme job");
        out.push(job(Scheme::Opt));
        out.push(job(Scheme::mp(10.0, 2.0)));
        out.push(job(Scheme::sp(10.0)).with_scenario(&scen));
    }
    out
}

/// Field-by-field comparison of two reports, with named assertions so a
/// divergence points at the subsystem that broke determinism.
fn assert_reports_identical(a: &SimReport, b: &SimReport) {
    assert_eq!(a.delivered, b.delivered, "delivered counts differ");
    assert_eq!(a.dropped, b.dropped, "drop counts differ");
    assert_eq!(a.events_processed, b.events_processed, "event counts differ");
    assert_eq!(a.control_messages, b.control_messages, "control message counts differ");
    assert_eq!(a.control_bytes, b.control_bytes, "control byte counts differ");
    assert_eq!(a.mean_delays_ms, b.mean_delays_ms, "per-flow mean delays differ (bitwise)");
    assert_eq!(a.flows, b.flows, "per-flow statistics differ");
    assert_eq!(a.links, b.links, "per-link statistics differ");
    assert_eq!(a.series, b.series, "delay time series differ");
    assert_eq!(a.robustness, b.robustness, "robustness reports differ");
    assert_eq!(a.telemetry, b.telemetry, "telemetry reports differ");
    // Belt and braces: the derived equality must agree too.
    assert_eq!(a, b);
}

#[test]
fn scheme_jobs_match_serial_execution_bit_for_bit() {
    let batch = jobs();
    assert_eq!(batch.iter().filter(|j| j.cfg.fixed_routing.is_some()).count(), 3);
    let serial: Vec<SimReport> = batch.iter().map(|j| j.run()).collect();
    // Explicit worker count — more workers than jobs stresses the
    // scheduling edge cases and ignores RAYON_NUM_THREADS races.
    let parallel = par::parallel_map_with(8, batch, |j| j.run());
    assert_eq!(serial.len(), parallel.len());
    for (s, p) in serial.iter().zip(&parallel) {
        assert_reports_identical(s, p);
    }
}

#[test]
fn run_many_matches_serial_execution_bit_for_bit() {
    let t = topo::net1();
    let flows = topo::net1_flows(1_200_000.0);
    let traffic = TrafficMatrix::from_flows(&t, &flows).expect("traffic");
    let batch: Vec<SimJob> = [3u64, 11, 29]
        .iter()
        .map(|&seed| {
            let cfg = SimConfig { warmup: 5.0, duration: 8.0, seed, ..Default::default() };
            SimJob::new(&t, &traffic, cfg)
        })
        .collect();
    let serial: Vec<SimReport> = batch.iter().map(|j| j.run()).collect();
    let parallel = par::parallel_map_with(4, batch, |j| j.run());
    assert_eq!(serial.len(), parallel.len());
    for (s, p) in serial.iter().zip(&parallel) {
        assert_reports_identical(s, p);
    }
}

#[test]
fn observer_on_runs_match_serial_execution_bit_for_bit() {
    let t = topo::net1();
    let flows = topo::net1_flows(1_200_000.0);
    let traffic = TrafficMatrix::from_flows(&t, &flows).expect("traffic");
    let batch: Vec<SimJob> = [3u64, 11, 29]
        .iter()
        .map(|&seed| {
            let cfg = SimConfig {
                warmup: 5.0,
                duration: 8.0,
                seed,
                observer: ObserverMode::Recording { data_plane: true },
                ..Default::default()
            };
            SimJob::new(&t, &traffic, cfg)
        })
        .collect();
    let serial: Vec<SimReport> = batch.iter().map(|j| j.run()).collect();
    let parallel = par::parallel_map_with(4, batch, |j| j.run());
    assert_eq!(serial.len(), parallel.len());
    for (s, p) in serial.iter().zip(&parallel) {
        // Telemetry equality here covers the full recorded event
        // sequence — the worker-thread runs must emit the exact same
        // events in the exact same order as the serial ones.
        assert_reports_identical(s, p);
        let tel = s.telemetry.as_ref().expect("recording observer must report telemetry");
        assert!(tel.events > 0, "observer saw no events");
        assert_eq!(
            tel.recorded.as_ref().map(|evs| evs.len() as u64),
            Some(tel.events),
            "recorded length must match the event count"
        );
    }
}

/// NET1 under the full chaos stack: link failures, router crashes, and
/// a lossy control channel, with invariant auditing on.
fn chaos_jobs() -> Vec<SimJob> {
    let t = topo::net1();
    let flows = topo::net1_flows(800_000.0);
    let traffic = TrafficMatrix::from_flows(&t, &flows).expect("traffic");
    [3u64, 11, 29]
        .iter()
        .map(|&seed| {
            let plan = FaultPlan {
                seed: seed ^ 0xC0FFEE,
                start: 2.0,
                link_faults: Some(FaultProcess { mtbf: 10.0, mttr: 1.0 }),
                router_faults: Some(FaultProcess { mtbf: 25.0, mttr: 1.5 }),
                control: Some(ControlChaos::default()),
                profile: None,
            };
            let cfg = SimConfig {
                warmup: 4.0,
                duration: 8.0,
                seed,
                fault_plan: Some(plan),
                audit_invariants: true,
                ..Default::default()
            };
            SimJob::new(&t, &traffic, cfg)
        })
        .collect()
}

#[test]
fn chaos_runs_match_serial_execution_bit_for_bit() {
    let batch = chaos_jobs();
    let serial: Vec<SimReport> = batch.iter().map(|j| j.run()).collect();
    let parallel = par::parallel_map_with(4, batch, |j| j.run());
    assert_eq!(serial.len(), parallel.len());
    for (s, p) in serial.iter().zip(&parallel) {
        assert_reports_identical(s, p);
        let rob = s.robustness.as_ref().expect("chaos job must produce a robustness report");
        assert_eq!(rob.invariant_violations, 0, "{:?}", rob.first_violation);
        assert!(!rob.faults.is_empty(), "the fault plan must have injected something");
    }
}

/// NET1 under the structured [`NetProfile`] adversary: bursty loss
/// forward, i.i.d. reverse (asymmetric), grey-failing data path, and a
/// scripted partition/heal — on top of the link-fault process.
fn profile_jobs() -> Vec<SimJob> {
    let t = topo::net1();
    let flows = topo::net1_flows(800_000.0);
    let traffic = TrafficMatrix::from_flows(&t, &flows).expect("traffic");
    [5u64, 23]
        .iter()
        .map(|&seed| {
            let mut profile =
                NetProfile::parse("ge:0.06,0.4,0.01,0.6;rev-iid:0.03;grey:0.25,0.1", seed ^ 0xAD)
                    .expect("profile spec");
            profile.partitions.push(PartitionSpec {
                at: 6.0,
                heal_at: 9.0,
                side: vec![NodeId(0), NodeId(1)],
            });
            let plan = FaultPlan {
                seed: seed ^ 0xC0FFEE,
                start: 2.0,
                link_faults: Some(FaultProcess { mtbf: 12.0, mttr: 1.0 }),
                router_faults: None,
                control: None,
                profile: Some(profile),
            };
            let cfg = SimConfig {
                warmup: 4.0,
                duration: 8.0,
                seed,
                fault_plan: Some(plan),
                audit_invariants: true,
                ..Default::default()
            };
            SimJob::new(&t, &traffic, cfg)
        })
        .collect()
}

#[test]
fn profile_chaos_runs_match_serial_execution_bit_for_bit() {
    let batch = profile_jobs();
    let serial: Vec<SimReport> = batch.iter().map(|j| j.run()).collect();
    let parallel = par::parallel_map_with(4, batch, |j| j.run());
    assert_eq!(serial.len(), parallel.len());
    for (s, p) in serial.iter().zip(&parallel) {
        assert_reports_identical(s, p);
        let rob = s.robustness.as_ref().expect("profile job must produce a robustness report");
        assert_eq!(rob.invariant_violations, 0, "{:?}", rob.first_violation);
        assert!(
            rob.faults.iter().any(|f| matches!(f.event, FaultEvent::PartitionCut { .. })),
            "the scripted cut must be recorded"
        );
        assert!(
            rob.faults.iter().any(|f| matches!(f.event, FaultEvent::PartitionHeal { .. })),
            "the scripted heal must be recorded"
        );
        assert!(rob.counters.lsus_grey_dropped > 0, "the grey failure never bit");
    }
}

#[test]
fn profile_chaos_same_seed_reproduces_the_same_report() {
    let job = profile_jobs().remove(0);
    let a = job.run();
    let b = job.run();
    assert_reports_identical(&a, &b);
    assert_eq!(a.robustness, b.robustness);
}

#[test]
fn chaos_same_seed_reproduces_the_same_robustness_report() {
    let job = chaos_jobs().remove(0);
    let a = job.run();
    let b = job.run();
    assert_reports_identical(&a, &b);
    // The RobustnessReport specifically must be field-for-field equal —
    // fault times, recovery times, and every damage counter.
    assert_eq!(a.robustness, b.robustness);
}

/// Fluid-mode batches must satisfy the same contract as packet-mode
/// ones: `run_many` is a pure speed-up, and a repeated seed reproduces
/// the report bit for bit. The fluid engine is deterministic by
/// construction (no RNG in the data plane), so any divergence here
/// means worker-thread state leaked into the solver.
#[test]
fn fluid_runs_match_serial_execution_bit_for_bit() {
    let t = topo::net1();
    let flows = topo::net1_flows(2_000_000.0);
    let traffic = TrafficMatrix::from_flows(&t, &flows).expect("traffic");
    let batch: Vec<SimJob> = [(Mode::Multipath, 3u64), (Mode::SinglePath, 11)]
        .iter()
        .map(|&(mode, seed)| {
            let cfg = SimConfig {
                mode,
                warmup: 5.0,
                duration: 8.0,
                seed,
                sim_mode: SimMode::Fluid,
                ..Default::default()
            };
            SimJob::new(&t, &traffic, cfg)
        })
        .collect();
    let serial: Vec<SimReport> = batch.iter().map(|j| j.run()).collect();
    let parallel = par::parallel_map_with(4, batch.clone(), |j| j.run());
    assert_eq!(serial.len(), parallel.len());
    for (s, p) in serial.iter().zip(&parallel) {
        assert_reports_identical(s, p);
    }
    // Same job, fresh run: bit-for-bit reproduction.
    let again: Vec<SimReport> = batch.iter().map(|j| j.run()).collect();
    for (s, p) in serial.iter().zip(&again) {
        assert_reports_identical(s, p);
    }
}

#[test]
fn same_seed_reproduces_the_same_report() {
    let t = topo::cairn();
    let flows = topo::cairn_flows(&t, 2_000_000.0);
    let traffic = TrafficMatrix::from_flows(&t, &flows).expect("traffic");
    let cfg = SimConfig { warmup: 5.0, duration: 10.0, seed: 13, ..Default::default() };
    let job = Scheme::mp(10.0, 2.0).job(&t, &traffic, cfg).expect("scheme job");
    assert_reports_identical(&job.run(), &job.run());
}
