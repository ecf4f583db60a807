//! Byte pins for the per-process telemetry schema: the exact JSON line
//! of a [`NodeRecord`] carrying each [`RecordBody`] variant (every
//! [`DownReason`] included), and that each line parses back to the
//! record it came from.
//!
//! The merged-trace LFI audit replays exactly these lines, so any
//! change in how they are produced must leave every byte here unchanged.

use mdr_net::NodeId;
use mdr_node::record::PeerSync;
use mdr_node::{DownReason, NodeRecord, RecordBody, SnapDest};
use mdr_proto::HlcStamp;

fn rec(body: RecordBody) -> NodeRecord {
    NodeRecord { hlc: HlcStamp { l: 123_456, c: 7 }, node: NodeId(3), incarnation: 2, body }
}

/// The envelope every line carries right after its `kind`.
const ENV: &str = r#""hlc_l":123456,"hlc_c":7,"node":3,"inc":2"#;

fn pins() -> Vec<(RecordBody, String)> {
    let down = |reason, label: &str| {
        (
            RecordBody::PeerDown { peer: NodeId(2), reason },
            format!(r#"{{"kind":"peer_down",{ENV},"peer":2,"reason":"{label}"}}"#),
        )
    };
    vec![
        (
            RecordBody::Start { n: 8, neighbors: vec![NodeId(1), NodeId(2)] },
            format!(r#"{{"kind":"start",{ENV},"n":8,"neighbors":[1,2]}}"#),
        ),
        (
            RecordBody::PeerUp { peer: NodeId(1), peer_inc: 4 },
            format!(r#"{{"kind":"peer_up",{ENV},"peer":1,"peer_inc":4}}"#),
        ),
        (
            RecordBody::PeerRestart { peer: NodeId(1), old: 4, new: 5 },
            format!(r#"{{"kind":"peer_restart",{ENV},"peer":1,"old":4,"new":5}}"#),
        ),
        down(DownReason::DeadInterval, "dead_interval"),
        down(DownReason::RetryExhausted, "retry_exhausted"),
        down(DownReason::Restarted, "restarted"),
        down(DownReason::SessionReset, "session_reset"),
        down(DownReason::ReorderOverflow, "reorder_overflow"),
        (
            RecordBody::ChannelLoss { peer: NodeId(2), in_flight: 3, backlog: 1, reorder: 0 },
            format!(
                r#"{{"kind":"channel_loss",{ENV},"peer":2,"in_flight":3,"backlog":1,"reorder":0}}"#
            ),
        ),
        (
            RecordBody::RouteChange { dest: NodeId(7), old: vec![], new: vec![NodeId(1)] },
            format!(r#"{{"kind":"route_change",{ENV},"dest":7,"old":[],"new":[1]}}"#),
        ),
        (
            RecordBody::Snapshot {
                dests: vec![SnapDest {
                    dest: NodeId(7),
                    fd: 2.5,
                    dist: 3.0,
                    successors: vec![NodeId(1), NodeId(2)],
                }],
                peers: vec![PeerSync { peer: NodeId(1), inc: 3 }],
            },
            format!(
                r#"{{"kind":"snapshot",{ENV},"dests":[{{"dest":7,"fd":2.5,"dist":3.0,"succ":[1,2]}}],"peers":[{{"peer":1,"inc":3}}]}}"#
            ),
        ),
        (
            RecordBody::Resynced { waited: 0.375 },
            format!(r#"{{"kind":"resynced",{ENV},"waited":0.375}}"#),
        ),
        (
            RecordBody::Alloc { dest: NodeId(7), shift: 0.25 },
            format!(r#"{{"kind":"alloc",{ENV},"dest":7,"shift":0.25}}"#),
        ),
        (
            RecordBody::LinkCost { peer: NodeId(1), cost: 0.125 },
            format!(r#"{{"kind":"link_cost",{ENV},"peer":1,"cost":0.125}}"#),
        ),
        (RecordBody::Converged, format!(r#"{{"kind":"converged",{ENV}}}"#)),
        (RecordBody::Stop { corrupt: 9 }, format!(r#"{{"kind":"stop",{ENV},"corrupt":9}}"#)),
    ]
}

#[test]
fn every_record_body_variant_serializes_to_its_pinned_line() {
    let pins = pins();
    assert_eq!(pins.len(), 16, "12 variants, peer_down once per DownReason");
    for (body, want) in pins {
        let r = rec(body);
        assert_eq!(serde_json::to_string(&r).unwrap(), want);
        assert_eq!(serde_json::from_str::<NodeRecord>(&want).unwrap(), r, "{want}");
    }
}

#[test]
fn unreachable_snapshot_row_writes_null_distances() {
    let r = rec(RecordBody::Snapshot {
        dests: vec![SnapDest {
            dest: NodeId(5),
            fd: f64::INFINITY,
            dist: f64::INFINITY,
            successors: vec![],
        }],
        peers: vec![],
    });
    assert_eq!(
        serde_json::to_string(&r).unwrap(),
        format!(
            r#"{{"kind":"snapshot",{ENV},"dests":[{{"dest":5,"fd":null,"dist":null,"succ":[]}}],"peers":[]}}"#
        )
    );
}
