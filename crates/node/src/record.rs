//! The per-process telemetry schema: one [`NodeRecord`] per JSON line.
//!
//! Each node streams its records through
//! [`mdr_sim::telemetry::JsonlSink`] into a per-incarnation trace file
//! (`node<i>.inc<k>.jsonl`), so live deployments inherit the simulator
//! trace suite's determinism guarantees. Records are stamped with the
//! node's [hybrid logical clock](crate::hlc) — sorting all files of a
//! soak run by `(hlc_l, hlc_c, node)` yields one causally consistent
//! history, which [`crate::trace`] replays through the LFI audit.
//!
//! The schema is symmetric: [`serde::Serialize`] writes exactly what
//! [`serde::Deserialize`] reads, pinned by a round-trip test, so the
//! audit can never drift from the emitter.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::reliable::DownReason;
use mdr_net::NodeId;
use mdr_proto::HlcStamp;
use serde::{Deserialize, Error, Serialize, Value};

/// One live adjacency inside a [`RecordBody::Snapshot`]: which
/// incarnation of the neighbor this node's routing state refers to. The
/// merged-trace audit uses this to tell a *fresh* successor edge (both
/// ends agree on the epoch) from a *stale* one pointing at a peer that
/// has since crashed and been reborn.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PeerSync {
    /// The neighbor.
    pub peer: NodeId,
    /// The neighbor incarnation this adjacency is established with.
    pub inc: u32,
}

/// One destination's safety-relevant state inside a
/// [`RecordBody::Snapshot`] — the router's own snapshot row.
pub use mdr_routing::DestState as SnapDest;

/// What happened.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum RecordBody {
    /// The process started (or restarted) and joined the control plane.
    Start {
        /// Network size.
        n: u64,
        /// Configured neighbors.
        neighbors: Vec<NodeId>,
    },
    /// An adjacency came up.
    PeerUp {
        /// The peer.
        peer: NodeId,
        /// The peer's incarnation.
        peer_inc: u32,
    },
    /// A peer restarted (incarnation advanced); the adjacency was torn
    /// down and re-established around this record.
    PeerRestart {
        /// The peer.
        peer: NodeId,
        /// Previous incarnation.
        old: u32,
        /// New incarnation.
        new: u32,
    },
    /// An adjacency failed.
    PeerDown {
        /// The peer.
        peer: NodeId,
        /// Why.
        reason: DownReason,
    },
    /// A channel reset discarded undelivered data (the flush-or-report
    /// contract: transport loss is recorded, never silent). Follows the
    /// `peer_down`/`peer_restart` that caused the reset.
    ChannelLoss {
        /// The peer.
        peer: NodeId,
        /// Segments in flight (sent, never acked) that were dropped.
        in_flight: u64,
        /// Segments queued behind the window, never transmitted.
        backlog: u64,
        /// Out-of-order segments buffered but never released.
        reorder: u64,
    },
    /// A successor set changed.
    RouteChange {
        /// Destination.
        dest: NodeId,
        /// Before, ascending.
        old: Vec<NodeId>,
        /// After, ascending.
        new: Vec<NodeId>,
    },
    /// Full safety snapshot (successors + FDs for every destination) —
    /// the merged-trace LFI audit replays exactly these.
    Snapshot {
        /// Per-destination state, ascending by destination.
        dests: Vec<SnapDest>,
        /// Live adjacencies with the peer incarnations they refer to.
        peers: Vec<PeerSync>,
    },
    /// A restarted process finished its quarantine: every configured
    /// neighbor either proved it purged routes through the previous
    /// life (by resetting its reliable channel) or timed out.
    Resynced {
        /// Seconds spent quarantined after `start`.
        waited: f64,
    },
    /// The flow allocator redistributed traffic toward a destination.
    Alloc {
        /// Destination.
        dest: NodeId,
        /// Traffic mass moved (half L1 distance; in `[0, 1]`).
        shift: f64,
    },
    /// The marginal-cost estimate for an adjacent link changed enough
    /// to re-advertise.
    LinkCost {
        /// The neighbor across the link.
        peer: NodeId,
        /// New cost (seconds).
        cost: f64,
    },
    /// The node reached local convergence: router PASSIVE, all
    /// channels idle, every configured neighbor resolved up or down.
    Converged,
    /// The process is shutting down cleanly.
    Stop {
        /// Undecodable datagrams seen over this life.
        corrupt: u64,
    },
}

/// One telemetry record: HLC stamp, emitting node + incarnation, body.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeRecord {
    /// Hybrid-logical-clock stamp of the emission.
    pub hlc: HlcStamp,
    /// Emitting node.
    pub node: NodeId,
    /// Emitting process incarnation.
    pub incarnation: u32,
    /// What happened.
    pub body: RecordBody,
}

impl NodeRecord {
    /// The merge key: records across all trace files sort by
    /// `(hlc_l, hlc_c, node)` — causally consistent by the HLC
    /// property, totally ordered by the node tiebreak.
    pub fn merge_key(&self) -> (u64, u32, u32) {
        (self.hlc.l, self.hlc.c, self.node.0)
    }
}

/// The per-line envelope: who emitted the record, and when.
#[derive(Serialize, Deserialize)]
struct Envelope {
    hlc_l: u64,
    hlc_c: u32,
    node: NodeId,
    inc: u32,
}

// The one hand-written JSON map: the derived `kind`-tagged body with
// the envelope spliced in right after its tag, both parsed from the
// same map.
impl Serialize for NodeRecord {
    fn serialize_value(&self) -> Value {
        let (hlc_l, hlc_c, node, inc) = (self.hlc.l, self.hlc.c, self.node, self.incarnation);
        let envelope = Envelope { hlc_l, hlc_c, node, inc }.serialize_value();
        let (Value::Map(mut m), Value::Map(envelope)) = (self.body.serialize_value(), envelope)
        else {
            unreachable!("derived named-field and tagged types serialize to maps")
        };
        m.splice(1..1, envelope);
        Value::Map(m)
    }
}

impl Deserialize for NodeRecord {
    fn deserialize_value(v: &Value) -> Result<Self, Error> {
        let body = RecordBody::deserialize_value(v)?;
        let Envelope { hlc_l, hlc_c, node, inc } = Envelope::deserialize_value(v)?;
        Ok(NodeRecord { hlc: HlcStamp { l: hlc_l, c: hlc_c }, node, incarnation: inc, body })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(body: RecordBody) -> NodeRecord {
        NodeRecord { hlc: HlcStamp { l: 123_456, c: 7 }, node: NodeId(3), incarnation: 2, body }
    }

    #[test]
    fn every_variant_roundtrips_through_json() {
        let bodies = vec![
            RecordBody::Start { n: 8, neighbors: vec![NodeId(1), NodeId(2)] },
            RecordBody::PeerUp { peer: NodeId(1), peer_inc: 4 },
            RecordBody::PeerRestart { peer: NodeId(1), old: 4, new: 5 },
            RecordBody::PeerDown { peer: NodeId(2), reason: DownReason::RetryExhausted },
            RecordBody::PeerDown { peer: NodeId(2), reason: DownReason::SessionReset },
            RecordBody::PeerDown { peer: NodeId(2), reason: DownReason::ReorderOverflow },
            RecordBody::ChannelLoss { peer: NodeId(2), in_flight: 3, backlog: 1, reorder: 0 },
            RecordBody::RouteChange { dest: NodeId(7), old: vec![], new: vec![NodeId(1)] },
            RecordBody::Snapshot {
                dests: vec![SnapDest {
                    dest: NodeId(7),
                    fd: 2.5,
                    dist: 2.5,
                    successors: vec![NodeId(1), NodeId(2)],
                }],
                peers: vec![
                    PeerSync { peer: NodeId(1), inc: 3 },
                    PeerSync { peer: NodeId(2), inc: 1 },
                ],
            },
            RecordBody::Resynced { waited: 0.375 },
            RecordBody::Alloc { dest: NodeId(7), shift: 0.25 },
            RecordBody::LinkCost { peer: NodeId(1), cost: 0.125 },
            RecordBody::Converged,
            RecordBody::Stop { corrupt: 0 },
        ];
        for body in bodies {
            let r = rec(body);
            let line = serde_json::to_string(&r).unwrap();
            let back: NodeRecord = serde_json::from_str(&line).unwrap();
            assert_eq!(back, r, "round-trip failed for {line}");
        }
    }

    #[test]
    fn merge_key_orders_by_hlc_then_node() {
        let a = rec(RecordBody::Converged);
        let mut b = a.clone();
        b.node = NodeId(4);
        let mut c = a.clone();
        c.hlc.c = 8;
        assert!(a.merge_key() < b.merge_key());
        assert!(b.merge_key() < c.merge_key());
    }

    #[test]
    fn unknown_kind_is_an_error_not_a_panic() {
        let r = serde_json::from_str::<NodeRecord>("{\"kind\":\"mystery\",\"hlc_l\":0}");
        assert!(r.is_err());
        let r = serde_json::from_str::<NodeRecord>("not json at all");
        assert!(r.is_err());
    }
}
