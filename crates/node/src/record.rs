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

use crate::reliable::DownReason;
use mdr_net::NodeId;
use mdr_proto::HlcStamp;
use mdr_sim::telemetry::node_seq;
use serde::{Deserialize, Error, Serialize, Value};

/// One live adjacency inside a [`RecordBody::Snapshot`]: which
/// incarnation of the neighbor this node's routing state refers to. The
/// merged-trace audit uses this to tell a *fresh* successor edge (both
/// ends agree on the epoch) from a *stale* one pointing at a peer that
/// has since crashed and been reborn.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
#[derive(Debug, Clone, PartialEq)]
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

impl RecordBody {
    /// Stable snake-case label (the `kind` tag on the wire).
    pub fn kind(&self) -> &'static str {
        match self {
            RecordBody::Start { .. } => "start",
            RecordBody::PeerUp { .. } => "peer_up",
            RecordBody::PeerRestart { .. } => "peer_restart",
            RecordBody::PeerDown { .. } => "peer_down",
            RecordBody::ChannelLoss { .. } => "channel_loss",
            RecordBody::RouteChange { .. } => "route_change",
            RecordBody::Snapshot { .. } => "snapshot",
            RecordBody::Resynced { .. } => "resynced",
            RecordBody::Alloc { .. } => "alloc",
            RecordBody::LinkCost { .. } => "link_cost",
            RecordBody::Converged => "converged",
            RecordBody::Stop { .. } => "stop",
        }
    }
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

// The vendored serde derive covers only unit-variant enums, so the
// record serializes by hand as a flat `kind`-tagged map (same scheme as
// `mdr_sim::telemetry::SimEvent`).
impl Serialize for NodeRecord {
    fn serialize_value(&self) -> Value {
        let mut m: Vec<(String, Value)> = vec![
            ("kind".into(), Value::Str(self.body.kind().into())),
            ("hlc_l".into(), Value::U64(self.hlc.l)),
            ("hlc_c".into(), Value::U64(self.hlc.c as u64)),
            ("node".into(), Value::U64(self.node.0 as u64)),
            ("inc".into(), Value::U64(self.incarnation as u64)),
        ];
        match &self.body {
            RecordBody::Start { n, neighbors } => {
                m.push(("n".into(), Value::U64(*n)));
                m.push(("neighbors".into(), node_seq(neighbors)));
            }
            RecordBody::PeerUp { peer, peer_inc } => {
                m.push(("peer".into(), Value::U64(peer.0 as u64)));
                m.push(("peer_inc".into(), Value::U64(*peer_inc as u64)));
            }
            RecordBody::PeerRestart { peer, old, new } => {
                m.push(("peer".into(), Value::U64(peer.0 as u64)));
                m.push(("old".into(), Value::U64(*old as u64)));
                m.push(("new".into(), Value::U64(*new as u64)));
            }
            RecordBody::PeerDown { peer, reason } => {
                m.push(("peer".into(), Value::U64(peer.0 as u64)));
                m.push(("reason".into(), Value::Str(reason.as_str().into())));
            }
            RecordBody::ChannelLoss { peer, in_flight, backlog, reorder } => {
                m.push(("peer".into(), Value::U64(peer.0 as u64)));
                m.push(("in_flight".into(), Value::U64(*in_flight)));
                m.push(("backlog".into(), Value::U64(*backlog)));
                m.push(("reorder".into(), Value::U64(*reorder)));
            }
            RecordBody::RouteChange { dest, old, new } => {
                m.push(("dest".into(), Value::U64(dest.0 as u64)));
                m.push(("old".into(), node_seq(old)));
                m.push(("new".into(), node_seq(new)));
            }
            RecordBody::Snapshot { dests, peers } => {
                let seq = dests
                    .iter()
                    .map(|d| {
                        Value::Map(vec![
                            ("dest".into(), Value::U64(d.dest.0 as u64)),
                            ("fd".into(), Value::F64(d.fd)),
                            ("dist".into(), Value::F64(d.dist)),
                            ("succ".into(), node_seq(&d.successors)),
                        ])
                    })
                    .collect();
                m.push(("dests".into(), Value::Seq(seq)));
                let seq = peers
                    .iter()
                    .map(|p| {
                        Value::Map(vec![
                            ("peer".into(), Value::U64(p.peer.0 as u64)),
                            ("inc".into(), Value::U64(p.inc as u64)),
                        ])
                    })
                    .collect();
                m.push(("peers".into(), Value::Seq(seq)));
            }
            RecordBody::Resynced { waited } => {
                m.push(("waited".into(), Value::F64(*waited)));
            }
            RecordBody::Alloc { dest, shift } => {
                m.push(("dest".into(), Value::U64(dest.0 as u64)));
                m.push(("shift".into(), Value::F64(*shift)));
            }
            RecordBody::LinkCost { peer, cost } => {
                m.push(("peer".into(), Value::U64(peer.0 as u64)));
                m.push(("cost".into(), Value::F64(*cost)));
            }
            RecordBody::Converged => {}
            RecordBody::Stop { corrupt } => {
                m.push(("corrupt".into(), Value::U64(*corrupt)));
            }
        }
        Value::Map(m)
    }
}

const TY: &str = "NodeRecord";

fn field<T: Deserialize>(v: &Value, name: &str) -> Result<T, Error> {
    T::deserialize_value(v.get_field(name).ok_or_else(|| Error::missing_field(name, TY))?)
}

fn node_field(v: &Value, name: &str) -> Result<NodeId, Error> {
    Ok(NodeId(field::<u32>(v, name)?))
}

fn nodes_field(v: &Value, name: &str) -> Result<Vec<NodeId>, Error> {
    Ok(field::<Vec<u32>>(v, name)?.into_iter().map(NodeId).collect())
}

impl Deserialize for NodeRecord {
    fn deserialize_value(v: &Value) -> Result<Self, Error> {
        let kind: String = field(v, "kind")?;
        let body = match kind.as_str() {
            "start" => {
                RecordBody::Start { n: field(v, "n")?, neighbors: nodes_field(v, "neighbors")? }
            }
            "peer_up" => {
                RecordBody::PeerUp { peer: node_field(v, "peer")?, peer_inc: field(v, "peer_inc")? }
            }
            "peer_restart" => RecordBody::PeerRestart {
                peer: node_field(v, "peer")?,
                old: field(v, "old")?,
                new: field(v, "new")?,
            },
            "peer_down" => {
                let reason: String = field(v, "reason")?;
                let reason = match reason.as_str() {
                    "dead_interval" => DownReason::DeadInterval,
                    "retry_exhausted" => DownReason::RetryExhausted,
                    "restarted" => DownReason::Restarted,
                    "session_reset" => DownReason::SessionReset,
                    "reorder_overflow" => DownReason::ReorderOverflow,
                    other => return Err(Error::custom(format!("unknown down reason `{other}`"))),
                };
                RecordBody::PeerDown { peer: node_field(v, "peer")?, reason }
            }
            "channel_loss" => RecordBody::ChannelLoss {
                peer: node_field(v, "peer")?,
                in_flight: field(v, "in_flight")?,
                backlog: field(v, "backlog")?,
                reorder: field(v, "reorder")?,
            },
            "route_change" => RecordBody::RouteChange {
                dest: node_field(v, "dest")?,
                old: nodes_field(v, "old")?,
                new: nodes_field(v, "new")?,
            },
            "snapshot" => {
                let seq = v
                    .get_field("dests")
                    .and_then(Value::as_seq)
                    .ok_or_else(|| Error::missing_field("dests", TY))?;
                let mut dests = Vec::with_capacity(seq.len());
                for d in seq {
                    dests.push(SnapDest {
                        dest: node_field(d, "dest")?,
                        fd: field(d, "fd")?,
                        dist: field(d, "dist")?,
                        successors: nodes_field(d, "succ")?,
                    });
                }
                let seq = v
                    .get_field("peers")
                    .and_then(Value::as_seq)
                    .ok_or_else(|| Error::missing_field("peers", TY))?;
                let mut peers = Vec::with_capacity(seq.len());
                for p in seq {
                    peers.push(PeerSync { peer: node_field(p, "peer")?, inc: field(p, "inc")? });
                }
                RecordBody::Snapshot { dests, peers }
            }
            "resynced" => RecordBody::Resynced { waited: field(v, "waited")? },
            "alloc" => {
                RecordBody::Alloc { dest: node_field(v, "dest")?, shift: field(v, "shift")? }
            }
            "link_cost" => {
                RecordBody::LinkCost { peer: node_field(v, "peer")?, cost: field(v, "cost")? }
            }
            "converged" => RecordBody::Converged,
            "stop" => RecordBody::Stop { corrupt: field(v, "corrupt")? },
            other => return Err(Error::custom(format!("unknown record kind `{other}`"))),
        };
        Ok(NodeRecord {
            hlc: HlcStamp { l: field(v, "hlc_l")?, c: field(v, "hlc_c")? },
            node: node_field(v, "node")?,
            incarnation: field(v, "inc")?,
            body,
        })
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
