//! MPDA — the Multiple-path Partial-topology Dissemination Algorithm
//! (Fig. 4), the paper's key routing algorithm.
//!
//! MPDA is PDA plus single-hop inter-neighbor synchronization: "each LSU
//! message sent by a router is acknowledged by all its neighbors before
//! the router sends the next LSU". A router waiting for ACKs is in the
//! **ACTIVE** state; otherwise **PASSIVE**. Events that arrive while
//! ACTIVE update the neighbor tables and link costs (NTU) but the main
//! table update (MTU) is deferred to the end of the ACTIVE phase. The
//! feasible distance `FD^i_j` is managed so that the LFI conditions
//! (Eqs. 16–17) hold at every instant, making the successor graph
//! `SG_j(t)` loop-free at every instant (Theorem 3).
//!
//! The router is a poll-style state machine ([`MpdaRouter::handle`]):
//! one input event in, zero or more messages out. Delivery of messages
//! on a link must be reliable and FIFO (the paper's assumption, provided
//! by both the in-memory harness and the packet simulator).

use crate::core::LsCore;
use crate::table::TopoTable;
use mdr_net::{LinkCost, NodeId, INFINITE_COST};
use mdr_proto::{LsuEntry, LsuMessage};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// An input to the router state machine: receipt of an LSU or detection
/// of an adjacent-link change (the event taxonomy of procedure PDA/MPDA).
#[derive(Debug, Clone, PartialEq)]
pub enum RouterEvent {
    /// An LSU message arrived from a neighbor.
    Lsu {
        /// Sending neighbor.
        from: NodeId,
        /// The message.
        msg: LsuMessage,
    },
    /// The adjacent link to `to` came up with initial cost `cost`.
    LinkUp {
        /// Neighbor at the other end.
        to: NodeId,
        /// Initial link cost (marginal delay).
        cost: LinkCost,
    },
    /// The adjacent link to `to` failed.
    LinkDown {
        /// Neighbor at the other end.
        to: NodeId,
    },
    /// The measured cost of the adjacent link to `to` changed.
    LinkCost {
        /// Neighbor at the other end.
        to: NodeId,
        /// New cost.
        cost: LinkCost,
    },
}

/// An outbound message with its destination neighbor.
#[derive(Debug, Clone, PartialEq)]
pub struct SendTo {
    /// Destination neighbor (one hop).
    pub to: NodeId,
    /// Message to deliver.
    pub msg: LsuMessage,
}

/// Result of handling one event.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RouterOutput {
    /// Messages to transmit, in order.
    pub sends: Vec<SendTo>,
    /// True if distances or successor sets changed — the signal for the
    /// flow-allocation layer to re-run the IH heuristic (§4.2: "When
    /// `S^i_j` is computed for the first time or recomputed again due to
    /// long-term route changes, traffic should be freshly distributed").
    pub routes_changed: bool,
    /// The per-destination successor-set diffs behind `routes_changed`
    /// (empty for routers that don't track successor sets, e.g. PDA).
    /// The telemetry layer publishes these as `RouteChange` events.
    pub changed: Vec<RouteChange>,
}

/// One successor-set change: destination, old set, new set (both in
/// ascending address order, as MPDA maintains them).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteChange {
    /// Destination the successor set points at.
    pub dest: NodeId,
    /// Successor set before the event.
    pub old: Vec<NodeId>,
    /// Successor set after the event.
    pub new: Vec<NodeId>,
}

/// Safety-relevant state of one router at one instant: everything the
/// LFI check ([`crate::lfi::check`]) and auditor
/// ([`crate::lfi::Auditor`]) need to replay a history without the live
/// routers, nothing more.
#[derive(Debug, Clone, PartialEq)]
pub struct RouterSnapshot {
    /// The router this snapshot describes.
    pub node: NodeId,
    /// Per-destination state for every destination except `node`
    /// itself, ascending by destination address.
    pub dests: Vec<DestState>,
}

/// One destination's successor set and feasible distance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DestState {
    /// Destination router.
    pub dest: NodeId,
    /// Feasible distance `FD^i_j` (infinite when unreachable).
    pub fd: LinkCost,
    /// Current distance `D^i_j`.
    pub dist: LinkCost,
    /// Successor set `S^i_j`, ascending by neighbor address.
    #[serde(rename = "succ")]
    pub successors: Vec<NodeId>,
}

/// The feasible-distance / successor update rule the router runs.
///
/// [`UpdateRule::Lfi`] is the paper's rule and the only sound one; the
/// broken variant exists so the verification tooling (the `mdr-lint`
/// model checker, the chaos auditors) can prove it *detects* unsound
/// rules rather than vacuously passing. It must never be used outside
/// tests and checker self-validation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum UpdateRule {
    /// Eq. 17 exactly: `S^i_j = { k | D^i_jk < FD^i_j }` with a
    /// *strict* inequality, FD raised only at ACTIVE-phase boundaries.
    #[default]
    Lfi,
    /// Deliberately unsound one-character bug: the successor condition
    /// uses `≤` instead of `<`. Two routers with tied feasible
    /// distances then adopt each other as successors, which violates
    /// the strictly-decreasing-potential argument of Theorem 1 and
    /// creates instant two-node loops on equal-cost topologies.
    NonStrictSuccessors,
}

/// Protocol counters (message/work accounting used by the complexity
/// benchmarks).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouterStats {
    /// Events processed.
    pub events: u64,
    /// LSU messages sent (including pure ACKs).
    pub lsu_sent: u64,
    /// Pure-ACK messages sent.
    pub acks_sent: u64,
    /// Topology entries sent.
    pub entries_sent: u64,
    /// LSU messages received.
    pub lsu_received: u64,
    /// Messages dropped because the sender is not an operational
    /// neighbor (in-flight across a failed link).
    pub dropped: u64,
    /// MTU executions.
    pub mtu_runs: u64,
    /// MTUs that ran whole, Dijkstra over a copied merged table: after an
    /// adjacent link came up or went down, from a kept state outside the
    /// repair's premises, or after an abort.
    pub mtu_dijkstras: u64,
    /// MTUs that repaired the kept shortest-path tree in place. The
    /// MTUs counted neither here nor in `mtu_dijkstras` found no
    /// merged run moved.
    pub mtu_repairs: u64,
    /// Repairs abandoned on an addition that did not increase or landed
    /// on `INFINITE_COST`; each then ran whole.
    pub mtu_aborts: u64,
    /// NTUs that recomputed `D^i_jk` only below the tails the LSU wrote.
    pub ntu_patches: u64,
    /// NTUs that walked all of the tree `T^i_k`: the first LSU after
    /// link-up, LSUs that wrote more tails than a patch is cheaper for,
    /// and tables with a cost outside `(0, INFINITE_COST)`, a cycle or an
    /// out-of-range root.
    pub ntu_tree_walks: u64,
    /// NTUs that ran Dijkstra over `T^i_k` (a node had two in-links).
    pub ntu_dijkstras: u64,
    /// Destinations whose successor set Eq. 17 evaluated.
    pub eq17_dests: u64,
    /// Nodes settled by the whole Dijkstras, MTU's and NTU's: their work
    /// in units of one node of one SPF. Patches and repairs settle none.
    pub spf_settled: u64,
}

/// The MPDA router.
#[derive(Debug, Clone)]
pub struct MpdaRouter {
    core: LsCore,
    /// Feasible distance `FD^i_j` per destination.
    fd: Vec<LinkCost>,
    /// Successor sets `S^i_j`, sorted by neighbor address.
    successors: Vec<Vec<NodeId>>,
    /// Neighbors whose ACK for our last entries-bearing LSU is pending.
    /// Non-empty ⇔ ACTIVE.
    pending_acks: BTreeSet<NodeId>,
    /// Neighbors that came up and still need a full-table sync.
    needs_full: BTreeSet<NodeId>,
    rule: UpdateRule,
    stats: RouterStats,
}

impl MpdaRouter {
    /// A router with address `id` in a network of `n` routers. It knows
    /// nothing and has no operational links until [`RouterEvent::LinkUp`]
    /// events arrive.
    pub fn new(id: NodeId, n: usize) -> Self {
        Self::with_rule(id, n, UpdateRule::Lfi)
    }

    /// A router running a specific [`UpdateRule`] — verification-tooling
    /// entry point; production code always uses [`MpdaRouter::new`].
    pub fn with_rule(id: NodeId, n: usize, rule: UpdateRule) -> Self {
        MpdaRouter {
            core: LsCore::new(id, n),
            fd: vec![INFINITE_COST; n],
            successors: vec![Vec::new(); n],
            pending_acks: BTreeSet::new(),
            needs_full: BTreeSet::new(),
            rule,
            stats: RouterStats::default(),
        }
    }

    /// Router address.
    pub fn id(&self) -> NodeId {
        self.core.id
    }

    /// True while waiting for ACKs (the ACTIVE state).
    pub fn is_active(&self) -> bool {
        !self.pending_acks.is_empty()
    }

    /// Current distance `D^i_j`.
    pub fn distance(&self, j: NodeId) -> LinkCost {
        self.core.dist[j.index()]
    }

    /// Current feasible distance `FD^i_j`.
    pub fn feasible_distance(&self, j: NodeId) -> LinkCost {
        self.fd[j.index()]
    }

    /// Successor set `S^i_j` (sorted by address).
    pub fn successors(&self, j: NodeId) -> &[NodeId] {
        &self.successors[j.index()]
    }

    /// `D^i_jk` — neighbor `k`'s distance to `j` as known here.
    pub fn neighbor_distance(&self, k: NodeId, j: NodeId) -> LinkCost {
        self.core.neighbor_distance(k, j)
    }

    /// Cost `l^i_k` of the adjacent link to `k` (None if down).
    pub fn link_cost(&self, k: NodeId) -> Option<LinkCost> {
        self.core.link_cost(k)
    }

    /// Operational neighbors, ascending.
    pub fn neighbors(&self) -> Vec<NodeId> {
        self.core.nbrs.iter().map(|nb| nb.id).collect()
    }

    /// The best successor for `j`: the `k ∈ S^i_j` minimizing
    /// `D^i_jk + l^i_k` (Eq. 20's argmin) — what single-path forwarding
    /// uses.
    pub fn best_successor(&self, j: NodeId) -> Option<NodeId> {
        let mut best: Option<(LinkCost, NodeId)> = None;
        for &k in &self.successors[j.index()] {
            let Some(s) = self.core.slot(k) else { continue };
            let total = self.core.dist_row(s)[j.index()] + self.core.nbrs[s].cost;
            match best {
                Some((b, _)) if total >= b => {}
                _ => best = Some((total, k)),
            }
        }
        best.map(|(_, k)| k)
    }

    /// Protocol counters.
    pub fn stats(&self) -> RouterStats {
        let mut s = self.stats;
        self.core.count_into(&mut s);
        s
    }

    /// The main topology table `T^i` (the router's shortest-path tree).
    pub fn main_topology(&self) -> &TopoTable {
        &self.core.main_topo
    }

    /// Capture the safety-relevant state (what a telemetry stream
    /// publishes after a route change).
    pub fn snapshot(&self) -> RouterSnapshot {
        let dests = (0..self.core.n)
            .filter(|&j| j != self.core.id.index())
            .map(|j| DestState {
                dest: NodeId(j as u32),
                fd: self.fd[j],
                dist: self.core.dist[j],
                successors: self.successors[j].clone(),
            })
            .collect();
        RouterSnapshot { node: self.core.id, dests }
    }

    /// Handle one event (procedure MPDA, Fig. 4).
    ///
    /// The procedure is decomposed into the paper's named steps — NTU
    /// ([`Self::step_ntu`]), MTU + feasible-distance update
    /// ([`Self::step_mtu_and_fd`]), successor recomputation
    /// ([`Self::recompute_successors`]) and message generation
    /// ([`Self::step_emit`]) — each a pure function of router state so
    /// that external drivers (the in-memory harness, the packet
    /// simulator, and the `mdr-lint` exhaustive model checker) all
    /// exercise exactly the same transition relation.
    pub fn handle(&mut self, event: RouterEvent) -> RouterOutput {
        self.stats.events += 1;
        let was_active = self.is_active();

        // ---- Step 1: NTU ----
        let ack_to = match self.step_ntu(&event) {
            Some(a) => a,
            None => return RouterOutput::default(), // non-neighbor LSU dropped
        };

        let last_ack = was_active && self.pending_acks.is_empty();

        // ---- Steps 2-3: MTU and feasible-distance update ----
        let (diff, dist_changed) = self.step_mtu_and_fd(was_active, last_ack);

        // ---- Step 4: successor sets via the LFI condition (Eq. 17) ----
        let changed = self.recompute_successors();

        // ---- Steps 5-8: state transition and message generation ----
        let sends = self.step_emit(was_active, last_ack, ack_to, &diff);

        RouterOutput { sends, routes_changed: dist_changed || !changed.is_empty(), changed }
    }

    /// Step 1 — the neighbor-table update: apply the event to the link
    /// and neighbor tables. Returns `None` when the event was an LSU
    /// from a non-neighbor (in flight across a link we consider down),
    /// which the caller must treat as a full no-op; otherwise
    /// `Some(ack_to)` where `ack_to` names the neighbor whose
    /// entries-bearing LSU must be acknowledged this round.
    fn step_ntu(&mut self, event: &RouterEvent) -> Option<Option<NodeId>> {
        let mut ack_to = None;
        match event {
            RouterEvent::Lsu { from, msg } => {
                if !self.core.is_neighbor(*from) {
                    self.stats.dropped += 1;
                    return None;
                }
                self.stats.lsu_received += 1;
                self.core.process_lsu(*from, msg);
                if msg.ack {
                    self.pending_acks.remove(from);
                }
                if !msg.entries.is_empty() {
                    // Entries-bearing LSUs must be acknowledged.
                    ack_to = Some(*from);
                }
            }
            RouterEvent::LinkUp { to, cost } => {
                self.core.link_up(*to, *cost);
                self.needs_full.insert(*to);
            }
            RouterEvent::LinkDown { to } => {
                self.core.link_down(*to);
                // "Any pending ACKs from the neighbor at the other end of
                // the link are treated as received."
                self.pending_acks.remove(to);
                self.needs_full.remove(to);
            }
            RouterEvent::LinkCost { to, cost } => {
                self.core.link_cost_change(*to, *cost);
            }
        }
        Some(ack_to)
    }

    /// Steps 2–3 — the main-table update and the feasible-distance rule,
    /// the heart of the safety argument. Returns the LSU entries that
    /// describe how `T^i` changed (empty while MTU is deferred) and
    /// whether any distance `D^i_j` moved.
    fn step_mtu_and_fd(&mut self, was_active: bool, last_ack: bool) -> (Vec<LsuEntry>, bool) {
        if was_active && !last_ack {
            // While ACTIVE mid-phase: NTU only; MTU deferred.
            return (Vec::new(), false);
        }
        let (diff, replaced) = self.core.mtu();
        let moved = &mut self.core.moved;
        let mut old = replaced.iter().peekable();
        for (j, (fd, &d)) in self.fd.iter_mut().zip(&self.core.dist).enumerate() {
            let reported = old.next_if(|&&(m, _)| m == j).map_or(d, |&(_, o)| o);
            let new = if was_active {
                // Step 3: ACTIVE phase ends — `reported` is the distance
                // last *reported* to neighbors; FD may rise to
                // min(reported, new), which is safe because every
                // neighbor has acknowledged the reported value.
                reported.min(d)
            } else {
                // Step 2: PASSIVE — T^i updated immediately; FD can only
                // drop.
                fd.min(d)
            };
            if new.to_bits() != fd.to_bits() {
                *fd = new;
                moved.insert(j);
            }
        }
        (diff, !replaced.is_empty())
    }

    /// Steps 5–8 — ACTIVE/PASSIVE transition and message generation:
    /// full-table syncs to freshly-up neighbors, the `diff` broadcast,
    /// and the mandatory acknowledgment of `ack_to`.
    fn step_emit(
        &mut self,
        was_active: bool,
        last_ack: bool,
        mut ack_to: Option<NodeId>,
        diff: &[LsuEntry],
    ) -> Vec<SendTo> {
        let mut sends = Vec::new();
        let can_initiate = !was_active || last_ack;
        if can_initiate {
            for s in 0..self.core.nbrs.len() {
                let k = self.core.nbrs[s].id;
                let entries = if self.needs_full.contains(&k) {
                    // Full-table sync to a freshly-up neighbor (NTU
                    // step 2 of Fig. 2).
                    self.core.main_topo.full_entries()
                } else if !diff.is_empty() {
                    diff.to_vec()
                } else {
                    continue;
                };
                if entries.is_empty() {
                    // Nothing to say yet (e.g. isolated router whose
                    // first link just came up and MTU found no tree).
                    continue;
                }
                self.needs_full.remove(&k);
                let ack = ack_to == Some(k);
                if ack {
                    ack_to = None;
                }
                self.stats.entries_sent += entries.len() as u64;
                self.stats.lsu_sent += 1;
                sends.push(SendTo { to: k, msg: LsuMessage { from: self.core.id, ack, entries } });
                self.pending_acks.insert(k);
            }
        }
        // Step 7: acknowledge the received LSU even if we had nothing to
        // send (or could not send because we are mid-ACTIVE).
        if let Some(k) = ack_to {
            if self.core.is_neighbor(k) {
                self.stats.lsu_sent += 1;
                self.stats.acks_sent += 1;
                sends.push(SendTo { to: k, msg: LsuMessage::ack_only(self.core.id) });
            }
        }
        sends
    }

    /// Eq. 17: `S^i_j = { k | D^i_jk < FD^i_j ∧ k ∈ N^i }`, for the
    /// destinations in `core.moved` — the only ones whose `FD^i_j` or
    /// some `D^i_jk` changed, or whose neighbor set shrank, since the
    /// last call. Returns the sets that moved, ascending by destination.
    fn recompute_successors(&mut self) -> Vec<RouteChange> {
        let n = self.core.n;
        let me = self.core.id.index();
        let mut changed = Vec::new();
        let mut set: Vec<NodeId> = Vec::new();
        for j in self.core.moved.drain().filter(|&j| j != me) {
            self.stats.eq17_dests += 1;
            set.clear();
            let fdj = self.fd[j];
            for (s, nb) in self.core.nbrs.iter().enumerate() {
                let djk = self.core.neighbor_dist[s * n + j];
                let admit = match self.rule {
                    UpdateRule::Lfi => djk < fdj,
                    // The deliberately unsound variant: `≤` admits
                    // neighbors at *equal* feasible distance, breaking
                    // the strict potential of Theorem 1.
                    UpdateRule::NonStrictSuccessors => djk <= fdj && fdj < INFINITE_COST,
                };
                if admit {
                    set.push(nb.id);
                }
            }
            if set != self.successors[j] {
                let old = std::mem::replace(&mut self.successors[j], set.clone());
                changed.push(RouteChange { dest: NodeId(j as u32), old, new: set.clone() });
            }
        }
        changed
    }

    /// Append a canonical byte encoding of the router's complete
    /// protocol state (everything that determines future behavior:
    /// tables, feasible distances, successor sets, ACTIVE-phase
    /// bookkeeping — but not the diagnostic counters). Two routers have
    /// equal encodings iff they are behaviorally identical, which is
    /// what the `mdr-lint` model checker keys its visited-state set on.
    /// Costs are encoded via `f64::to_bits`, so the encoding is exact.
    pub fn encode_state(&self, out: &mut Vec<u8>) {
        fn push_u32(out: &mut Vec<u8>, x: u32) {
            out.extend_from_slice(&x.to_le_bytes());
        }
        fn push_cost(out: &mut Vec<u8>, c: LinkCost) {
            out.extend_from_slice(&c.to_bits().to_le_bytes());
        }
        fn push_topo(out: &mut Vec<u8>, t: &TopoTable) {
            push_u32(out, t.len() as u32);
            for (h, tl, c) in t.iter() {
                push_u32(out, h.0);
                push_u32(out, tl.0);
                push_cost(out, c);
            }
        }
        push_u32(out, self.core.id.0);
        push_u32(out, self.core.n as u32);
        // Link table, neighbor topology tables, neighbor distances: each
        // keyed by neighbor, ascending. `dist_computed` adds nothing: it
        // is whether `D^i_kk` is still the infinite link-up seed.
        let nbrs = &self.core.nbrs;
        push_u32(out, nbrs.len() as u32);
        for nb in nbrs {
            push_u32(out, nb.id.0);
            push_cost(out, nb.cost);
        }
        push_u32(out, nbrs.len() as u32);
        for nb in nbrs {
            push_u32(out, nb.id.0);
            push_topo(out, &nb.topo);
        }
        push_u32(out, nbrs.len() as u32);
        for (s, nb) in nbrs.iter().enumerate() {
            push_u32(out, nb.id.0);
            for &d in self.core.dist_row(s) {
                push_cost(out, d);
            }
        }
        push_topo(out, &self.core.main_topo);
        for &d in &self.core.dist {
            push_cost(out, d);
        }
        for &f in &self.fd {
            push_cost(out, f);
        }
        for set in &self.successors {
            push_u32(out, set.len() as u32);
            for &k in set {
                push_u32(out, k.0);
            }
        }
        push_u32(out, self.pending_acks.len() as u32);
        for &k in &self.pending_acks {
            push_u32(out, k.0);
        }
        push_u32(out, self.needs_full.len() as u32);
        for &k in &self.needs_full {
            push_u32(out, k.0);
        }
    }
}

#[cfg(test)]
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use mdr_proto::LsuEntry;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    /// Deliver every queued message until quiescence, FIFO per pair,
    /// round-robin over routers. Panics if it fails to drain (protocol
    /// deadlock or livelock).
    fn run_to_quiescence(
        routers: &mut [MpdaRouter],
        queues: &mut Vec<(NodeId, NodeId, LsuMessage)>,
    ) {
        let mut steps = 0;
        while let Some((from, to, msg)) = queues.first().cloned() {
            queues.remove(0);
            let out = routers[to.index()].handle(RouterEvent::Lsu { from, msg });
            for s in out.sends {
                queues.push((to, s.to, s.msg));
            }
            steps += 1;
            assert!(steps < 100_000, "protocol did not quiesce");
        }
    }

    /// Bring up a full mesh of `LinkUp` events for the given undirected
    /// edges, then run to quiescence.
    fn converge(nn: usize, edges: &[(u32, u32, f64)]) -> Vec<MpdaRouter> {
        converge_with_rule(nn, edges, UpdateRule::Lfi)
    }

    fn converge_with_rule(
        nn: usize,
        edges: &[(u32, u32, f64)],
        rule: UpdateRule,
    ) -> Vec<MpdaRouter> {
        let mut routers: Vec<MpdaRouter> =
            (0..nn).map(|i| MpdaRouter::with_rule(n(i as u32), nn, rule)).collect();
        let mut queues: Vec<(NodeId, NodeId, LsuMessage)> = Vec::new();
        for &(a, b, c) in edges {
            let out = routers[a as usize].handle(RouterEvent::LinkUp { to: n(b), cost: c });
            for s in out.sends {
                queues.push((n(a), s.to, s.msg));
            }
            let out = routers[b as usize].handle(RouterEvent::LinkUp { to: n(a), cost: c });
            for s in out.sends {
                queues.push((n(b), s.to, s.msg));
            }
        }
        run_to_quiescence(&mut routers, &mut queues);
        routers
    }

    #[test]
    fn two_node_convergence() {
        let r = converge(2, &[(0, 1, 1.0)]);
        assert_eq!(r[0].distance(n(1)), 1.0);
        assert_eq!(r[1].distance(n(0)), 1.0);
        assert_eq!(r[0].successors(n(1)), &[n(1)]);
        assert!(!r[0].is_active());
        assert!(!r[1].is_active());
    }

    #[test]
    fn line_convergence() {
        let r = converge(3, &[(0, 1, 1.0), (1, 2, 1.0)]);
        assert_eq!(r[0].distance(n(2)), 2.0);
        assert_eq!(r[2].distance(n(0)), 2.0);
        assert_eq!(r[0].successors(n(2)), &[n(1)]);
        assert_eq!(r[1].successors(n(2)), &[n(2)]);
    }

    #[test]
    fn unequal_cost_multipath_successors() {
        // Square: 0-1 (1), 0-2 (2), 1-3 (1), 2-3 (1). Node 0's paths to 3:
        // via 1 (cost 2) and via 2 (cost 3) — both must be successors
        // because D_3,1 = 1 < FD = 2? No: D_3,2 = 1 < 2 holds, so both.
        let r = converge(4, &[(0, 1, 1.0), (0, 2, 2.0), (1, 3, 1.0), (2, 3, 1.0)]);
        assert_eq!(r[0].distance(n(3)), 2.0);
        // Both neighbors are strictly closer to 3 than FD(0,3)=2:
        // D(1→3)=1 < 2 and D(2→3)=1 < 2.
        assert_eq!(r[0].successors(n(3)), &[n(1), n(2)]);
        assert_eq!(r[0].best_successor(n(3)), Some(n(1)));
    }

    #[test]
    fn successor_excluded_when_not_closer() {
        // Triangle with equal costs: 0-1 (1), 0-2 (1), 1-2 (1).
        // For destination 2: neighbor 1 has D(1→2)=1 which is NOT < FD(0,2)=1,
        // so only 2 itself is a successor — exactly Eq. 14/17 strictness.
        let r = converge(3, &[(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)]);
        assert_eq!(r[0].successors(n(2)), &[n(2)]);
    }

    #[test]
    fn link_failure_reconvergence() {
        let mut r = converge(3, &[(0, 1, 1.0), (1, 2, 1.0), (0, 2, 5.0)]);
        assert_eq!(r[0].distance(n(2)), 2.0);
        // Fail link 1-2 on both ends, then drain.
        let mut queues: Vec<(NodeId, NodeId, LsuMessage)> = Vec::new();
        let out = r[1].handle(RouterEvent::LinkDown { to: n(2) });
        for s in out.sends {
            queues.push((n(1), s.to, s.msg));
        }
        let out = r[2].handle(RouterEvent::LinkDown { to: n(1) });
        for s in out.sends {
            queues.push((n(2), s.to, s.msg));
        }
        run_to_quiescence(&mut r, &mut queues);
        assert_eq!(r[0].distance(n(2)), 5.0);
        assert_eq!(r[0].successors(n(2)), &[n(2)]);
        assert_eq!(r[1].distance(n(2)), 6.0);
    }

    #[test]
    fn cost_increase_reconvergence() {
        let mut r = converge(2, &[(0, 1, 1.0)]);
        let mut queues: Vec<(NodeId, NodeId, LsuMessage)> = Vec::new();
        let out = r[0].handle(RouterEvent::LinkCost { to: n(1), cost: 3.0 });
        for s in out.sends {
            queues.push((n(0), s.to, s.msg));
        }
        run_to_quiescence(&mut r, &mut queues);
        assert_eq!(r[0].distance(n(1)), 3.0);
        // Asymmetric: router 1's own outgoing link is unchanged.
        assert_eq!(r[1].distance(n(0)), 1.0);
    }

    #[test]
    fn feasible_distance_tracks_distance_at_convergence() {
        let r = converge(3, &[(0, 1, 1.0), (1, 2, 1.0)]);
        for router in &r {
            for j in 0..3 {
                let j = n(j);
                if j == router.id() {
                    continue;
                }
                assert_eq!(
                    router.feasible_distance(j),
                    router.distance(j),
                    "router {} dest {j}",
                    router.id()
                );
            }
        }
    }

    #[test]
    fn theorem4_successors_at_convergence() {
        // S_j = {k | D^k_j < D^i_j} after convergence (liveness).
        let r = converge(4, &[(0, 1, 1.0), (0, 2, 2.0), (1, 3, 1.0), (2, 3, 1.0), (1, 2, 1.0)]);
        for i in 0..4usize {
            for j in 0..4u32 {
                let j = n(j);
                if j == r[i].id() {
                    continue;
                }
                let expect: Vec<NodeId> = r[i]
                    .neighbors()
                    .into_iter()
                    .filter(|&k| r[k.index()].distance(j) < r[i].distance(j))
                    .collect();
                assert_eq!(r[i].successors(j), expect.as_slice(), "router {i} dest {j}");
            }
        }
    }

    #[test]
    fn message_from_non_neighbor_dropped() {
        let mut r = MpdaRouter::new(n(0), 3);
        let out = r.handle(RouterEvent::Lsu {
            from: n(2),
            msg: LsuMessage::update(n(2), vec![LsuEntry::add(n(2), n(1), 1.0)]),
        });
        assert!(out.sends.is_empty());
        assert_eq!(r.stats().dropped, 1);
        assert_eq!(r.distance(n(1)), INFINITE_COST);
    }

    /// Entries naming routers outside `0..n` (a corrupt or hostile
    /// datagram from a legitimate neighbor) sit in `T^i_k` as inert
    /// rows: no panic, no effect on distances, never sent onward.
    #[test]
    fn out_of_range_entries_are_inert_and_never_readvertised() {
        let far = n(u32::MAX);
        let in_range = |out: &RouterOutput| {
            out.sends.iter().flat_map(|s| &s.msg.entries).all(|e| e.head.0 < 4 && e.tail.0 < 4)
        };
        let mut r = MpdaRouter::new(n(0), 4);
        let mut clean = MpdaRouter::new(n(0), 4);
        for x in [&mut r, &mut clean] {
            x.handle(RouterEvent::LinkUp { to: n(1), cost: 1.0 });
            x.handle(RouterEvent::Lsu { from: n(1), msg: LsuMessage::ack_only(n(1)) });
        }
        let honest = vec![LsuEntry::add(n(1), n(2), 1.0), LsuEntry::add(n(2), n(3), 1.0)];
        let mut hostile = honest.clone();
        hostile.extend([
            LsuEntry::add(far, far, 1.0),
            LsuEntry::add(n(2), far, 0.5),
            LsuEntry::add(far, n(3), 0.5),
            LsuEntry::add(n(7), n(3), 0.5),
            LsuEntry::delete(far, n(9)),
        ]);
        let out = r.handle(RouterEvent::Lsu { from: n(1), msg: LsuMessage::update(n(1), hostile) });
        let want =
            clean.handle(RouterEvent::Lsu { from: n(1), msg: LsuMessage::update(n(1), honest) });
        assert_eq!(out, want, "the extra entries changed what the router does");
        assert!(in_range(&out));
        assert_eq!(r.distance(n(3)), 3.0);
        assert_eq!(r.main_topology(), clean.main_topology());
        // A neighbor that comes up later gets the full table: still clean.
        r.handle(RouterEvent::Lsu { from: n(1), msg: LsuMessage::ack_only(n(1)) });
        let out = r.handle(RouterEvent::LinkUp { to: n(2), cost: 1.0 });
        assert!(!out.sends.is_empty() && in_range(&out));
        // A neighbor whose own address is out of range is tolerated too.
        let out = r.handle(RouterEvent::LinkUp { to: far, cost: 1.0 });
        assert!(in_range(&out));
        r.handle(RouterEvent::Lsu { from: far, msg: LsuMessage::ack_only(far) });
        assert_eq!(r.neighbor_distance(far, n(1)), INFINITE_COST);
        assert_eq!(r.distance(n(3)), 2.0, "0 → 2 → 3 over the new adjacent link");
    }

    #[test]
    fn ack_only_messages_are_not_acked() {
        let mut r = converge(2, &[(0, 1, 1.0)]);
        let out = r[0].handle(RouterEvent::Lsu { from: n(1), msg: LsuMessage::ack_only(n(1)) });
        assert!(out.sends.is_empty(), "pure ACK must not trigger a reply: {out:?}");
    }

    #[test]
    fn routes_changed_flag() {
        let mut r = MpdaRouter::new(n(0), 2);
        let out = r.handle(RouterEvent::LinkUp { to: n(1), cost: 1.0 });
        assert!(out.routes_changed);
        assert!(r.is_active(), "awaiting the neighbor's ACK");
        // While ACTIVE, a cost change is deferred (MTU does not run), so
        // routes must NOT change yet — that is the synchronization.
        let out = r.handle(RouterEvent::LinkCost { to: n(1), cost: 2.0 });
        assert!(!out.routes_changed);
        // The ACK ends the ACTIVE phase; the deferred change now lands.
        let out = r.handle(RouterEvent::Lsu { from: n(1), msg: LsuMessage::ack_only(n(1)) });
        assert!(out.routes_changed);
        assert_eq!(r.distance(n(1)), 2.0);
    }

    #[test]
    fn non_strict_rule_admits_tied_neighbors() {
        // Equal-cost triangle. Under the sound rule only the destination
        // itself qualifies (strict `<`); under the deliberately broken
        // rule the tied third corner is admitted too — routers 0 and 1
        // each list the other as a successor for destination 2, an
        // instant two-node loop the LFI checkers must flag.
        let sound = converge(3, &[(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)]);
        assert_eq!(sound[0].successors(n(2)), &[n(2)]);
        let broken = converge_with_rule(
            3,
            &[(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)],
            UpdateRule::NonStrictSuccessors,
        );
        assert!(broken[0].successors(n(2)).contains(&n(1)));
        assert!(broken[1].successors(n(2)).contains(&n(0)));
        let (succ, fd) = (
            |i: NodeId, j| broken[i.index()].successors(j),
            |i: NodeId, j| broken[i.index()].feasible_distance(j),
        );
        let v = crate::lfi::check(3, succ, fd, |_, _| true);
        assert!(matches!(v, Err(crate::lfi::Violation::Cycle { .. })), "{v:?}");
        assert!(crate::lfi::check_fd_ordering_with(3, |i| &broken[i.index()]).is_err());
    }

    #[test]
    fn encode_state_distinguishes_and_matches() {
        let a = converge(3, &[(0, 1, 1.0), (1, 2, 1.0)]);
        let b = converge(3, &[(0, 1, 1.0), (1, 2, 1.0)]);
        let (mut ka, mut kb) = (Vec::new(), Vec::new());
        a[1].encode_state(&mut ka);
        b[1].encode_state(&mut kb);
        assert_eq!(ka, kb, "identical histories must encode identically");
        let c = converge(3, &[(0, 1, 1.0), (1, 2, 2.0)]);
        let mut kc = Vec::new();
        c[1].encode_state(&mut kc);
        assert_ne!(ka, kc, "different link costs must change the encoding");
    }

    #[test]
    fn snapshots_feed_the_view_checkers() {
        let r = converge(3, &[(0, 1, 1.0), (1, 2, 1.0)]);
        let snaps: Vec<RouterSnapshot> = r.iter().map(|x| x.snapshot()).collect();
        // Dense rows, as a merged-trace replay rebuilds them.
        let row = |i: NodeId, j: NodeId| snaps[i.index()].dests.iter().find(|d| d.dest == j);
        let succ = |i, j| row(i, j).map_or(&[][..], |d| &d.successors[..]);
        let fd = |i, j| row(i, j).map_or(INFINITE_COST, |d| d.fd);
        assert_eq!(crate::lfi::check(3, succ, fd, |_, _| true), Ok(()));
        // The snapshot agrees with the live router everywhere.
        for (router, snap) in r.iter().zip(&snaps) {
            assert_eq!(snap.node, router.id());
            for ds in &snap.dests {
                assert_eq!(ds.successors, router.successors(ds.dest));
                assert_eq!(ds.fd, router.feasible_distance(ds.dest));
                assert_eq!(ds.dist, router.distance(ds.dest));
            }
        }
    }

    #[test]
    fn snapshot_defaults_for_unknown_destinations() {
        let s = MpdaRouter::new(n(0), 4).snapshot();
        assert_eq!(s.dests.len(), 3);
        assert!(s.dests.iter().all(|d| d.dest != n(0)), "self is not in the snapshot");
        assert!(s.dests.iter().all(|d| d.fd == INFINITE_COST && d.successors.is_empty()));
    }

    #[test]
    fn stats_accumulate() {
        let r = converge(3, &[(0, 1, 1.0), (1, 2, 1.0)]);
        let s = r[1].stats();
        assert!(s.events > 0);
        assert!(s.lsu_sent > 0);
        assert!(s.lsu_received > 0);
        assert!(s.mtu_runs > 0);
        assert!(s.mtu_dijkstras > 0 && s.mtu_dijkstras + s.mtu_repairs <= s.mtu_runs);
        assert!(s.ntu_tree_walks > 0);
        assert_eq!(s.ntu_dijkstras, 0, "every T^i_k of a converging line is a tree");
        assert_eq!(s.mtu_aborts, 0, "every addition of a line with costs 1 increases");
        // Each whole MTU Dijkstra settles the router and at most the two
        // others; patches and repairs settle none.
        assert!(s.spf_settled >= s.mtu_dijkstras && s.spf_settled <= 3 * s.mtu_dijkstras);
        assert!(s.eq17_dests > 0 && s.eq17_dests <= s.events * 2);
    }
}
