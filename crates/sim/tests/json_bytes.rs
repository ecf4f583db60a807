//! Byte pins for the simulator's JSON vocabulary: the exact line every
//! [`SimEvent`], [`FaultEvent`] and [`LossModel`] variant serializes to.
//!
//! Trace files, chaos reports and the golden snapshots are all written
//! through these encodings, so any change in how they are produced must
//! leave every byte here unchanged.

use mdr_flow::AllocHeuristic;
use mdr_net::{LinkId, NodeId};
use mdr_sim::{DropReason, FaultEvent, LossModel, SimEvent};

fn n(i: u32) -> NodeId {
    NodeId(i)
}

fn line<T: serde::Serialize>(v: &T) -> String {
    serde_json::to_string(v).unwrap()
}

/// One event per variant (every `DropReason` and `AllocHeuristic`
/// included), paired with its exact serialized line.
fn sim_event_pins() -> Vec<(SimEvent, &'static str)> {
    vec![
        (
            SimEvent::PacketHop {
                time: 0.5,
                flow: 1,
                link: LinkId(2),
                from: n(0),
                to: n(1),
                bits: 1000.0,
                queue_delay: 0.25,
            },
            r#"{"kind":"packet_hop","time":0.5,"flow":1,"link":2,"from":0,"to":1,"bits":1000.0,"queue_delay":0.25}"#,
        ),
        (
            SimEvent::PacketDelivered { time: 1.0, flow: 1, node: n(3), delay: 0.125 },
            r#"{"kind":"packet_delivered","time":1.0,"flow":1,"node":3,"delay":0.125}"#,
        ),
        (
            SimEvent::PacketDropped { time: 1.5, flow: 2, node: n(4), reason: DropReason::NoRoute },
            r#"{"kind":"packet_dropped","time":1.5,"flow":2,"node":4,"reason":"no_route"}"#,
        ),
        (
            SimEvent::PacketDropped { time: 1.5, flow: 2, node: n(4), reason: DropReason::Ttl },
            r#"{"kind":"packet_dropped","time":1.5,"flow":2,"node":4,"reason":"ttl"}"#,
        ),
        (
            SimEvent::PacketDropped { time: 1.5, flow: 2, node: n(4), reason: DropReason::Crashed },
            r#"{"kind":"packet_dropped","time":1.5,"flow":2,"node":4,"reason":"crashed"}"#,
        ),
        (
            SimEvent::LsuSent { time: 2.0, from: n(0), to: n(1), bytes: 96, attempts: 2 },
            r#"{"kind":"lsu_sent","time":2.0,"from":0,"to":1,"bytes":96,"attempts":2}"#,
        ),
        (
            SimEvent::LsuReceived { time: 2.5, node: n(1), from: n(0), entries: 3, ack: true },
            r#"{"kind":"lsu_received","time":2.5,"node":1,"from":0,"entries":3,"ack":true}"#,
        ),
        (
            SimEvent::RouteChange {
                time: 3.0,
                node: n(1),
                dest: n(5),
                old: vec![],
                new: vec![n(2), n(3)],
            },
            r#"{"kind":"route_change","time":3.0,"node":1,"dest":5,"old":[],"new":[2,3]}"#,
        ),
        (
            SimEvent::AllocShift {
                time: 3.5,
                node: n(1),
                dest: n(5),
                heuristic: AllocHeuristic::BestPath,
                shift: 0.75,
            },
            r#"{"kind":"alloc_shift","time":3.5,"node":1,"dest":5,"heuristic":"best_path","shift":0.75}"#,
        ),
        (
            SimEvent::AllocShift {
                time: 3.5,
                node: n(1),
                dest: n(5),
                heuristic: AllocHeuristic::Initial,
                shift: 0.75,
            },
            r#"{"kind":"alloc_shift","time":3.5,"node":1,"dest":5,"heuristic":"initial","shift":0.75}"#,
        ),
        (
            SimEvent::AllocShift {
                time: 3.5,
                node: n(1),
                dest: n(5),
                heuristic: AllocHeuristic::Incremental,
                shift: 0.75,
            },
            r#"{"kind":"alloc_shift","time":3.5,"node":1,"dest":5,"heuristic":"incremental","shift":0.75}"#,
        ),
        (
            SimEvent::LinkCostSample { time: 4.0, node: n(1), link: LinkId(6), cost: 0.0625 },
            r#"{"kind":"link_cost","time":4.0,"node":1,"link":6,"cost":0.0625}"#,
        ),
        (
            SimEvent::TrafficChange { time: 4.5, flow: 0, rate: 2.5e6 },
            r#"{"kind":"traffic_change","time":4.5,"flow":0,"rate":2500000.0}"#,
        ),
        (
            SimEvent::Fault { time: 5.0, event: FaultEvent::FailLink { a: n(0), b: n(1) } },
            r#"{"kind":"fault","time":5.0,"event":{"kind":"fail_link","a":0,"b":1}}"#,
        ),
        (
            SimEvent::Recovery { time: 6.5, fault_time: 5.0, recovery_s: 1.5 },
            r#"{"kind":"recovery","time":6.5,"fault_time":5.0,"recovery_s":1.5}"#,
        ),
        (SimEvent::ControlQuiescent { time: 7.0 }, r#"{"kind":"control_quiescent","time":7.0}"#),
    ]
}

#[test]
fn every_sim_event_variant_serializes_to_its_pinned_line() {
    let pins = sim_event_pins();
    let mut kinds: Vec<&str> = pins.iter().map(|(ev, _)| ev.kind()).collect();
    kinds.dedup();
    assert_eq!(kinds.len(), 12, "one pin per SimEvent variant");
    for (ev, want) in &pins {
        assert_eq!(line(ev), *want);
    }
}

#[test]
fn sim_event_kind_is_the_serialized_tag() {
    for (ev, _) in sim_event_pins() {
        let prefix = format!("{{\"kind\":\"{}\",", ev.kind());
        assert!(line(&ev).starts_with(&prefix), "{} vs {}", ev.kind(), line(&ev));
    }
}

#[test]
fn every_fault_event_variant_pins_and_round_trips() {
    let pins = [
        (FaultEvent::FailLink { a: n(2), b: n(7) }, r#"{"kind":"fail_link","a":2,"b":7}"#),
        (FaultEvent::RestoreLink { a: n(2), b: n(7) }, r#"{"kind":"restore_link","a":2,"b":7}"#),
        (FaultEvent::CrashRouter { node: n(4) }, r#"{"kind":"crash_router","node":4}"#),
        (FaultEvent::RestartRouter { node: n(4) }, r#"{"kind":"restart_router","node":4}"#),
        (FaultEvent::PartitionCut { index: 1 }, r#"{"kind":"partition_cut","index":1}"#),
        (FaultEvent::PartitionHeal { index: 1 }, r#"{"kind":"partition_heal","index":1}"#),
    ];
    for (ev, want) in pins {
        assert_eq!(line(&ev), want);
        assert_eq!(serde_json::from_str::<FaultEvent>(want).unwrap(), ev);
    }
}

#[test]
fn every_loss_model_variant_pins_and_round_trips() {
    let pins = [
        (LossModel::Iid { p: 0.125 }, r#"{"kind":"iid","p":0.125}"#),
        (
            LossModel::GilbertElliott { p_gb: 0.25, p_bg: 0.5, loss_good: 0.0, loss_bad: 0.75 },
            r#"{"kind":"gilbert_elliott","p_gb":0.25,"p_bg":0.5,"loss_good":0.0,"loss_bad":0.75}"#,
        ),
    ];
    for (m, want) in pins {
        assert_eq!(line(&m), want);
        assert_eq!(serde_json::from_str::<LossModel>(want).unwrap(), m);
    }
}
