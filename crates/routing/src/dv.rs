//! MDVP — a **distance-vector** instantiation of the LFI framework.
//!
//! Section 3 of the paper stresses that the Loop-Free Invariant
//! conditions "are applicable to any type of routing algorithm": the
//! link-state MPDA is just one instantiation, and the authors' companion
//! work (MPATH / MDVA) instantiates the same invariants over distance
//! vectors. This module provides such an instantiation — *Multipath
//! Distance-Vector Protocol* — as the extension arm of this
//! reproduction:
//!
//! * neighbors exchange **distance vectors** (`(destination, distance)`
//!   pairs) instead of link states — `D^i_jk` of Eq. 16 is communicated
//!   directly rather than derived from a neighbor topology table;
//! * distances follow the Bellman-Ford equation (Eq. 13),
//!   `D_j = min_k(D_jk + l_k)`;
//! * feasible distances `FD^i_j` and the ACTIVE/PASSIVE single-hop
//!   synchronization are managed exactly as in MPDA (Fig. 4, steps 2–3),
//!   so Theorem 1 applies verbatim and the successor graph is loop-free
//!   at every instant — verified by the same `lfi` checkers and the same
//!   kind of adversarial-schedule tests as MPDA.
//!
//! ## Termination on partitions
//!
//! Pure distance-vector protocols count to infinity when a destination
//! becomes unreachable. The full solution is MDVA's diffusing
//! computations; this module uses the classic bounded-metric cutoff
//! instead ([`MAX_METRIC`]): any distance exceeding the bound is treated
//! as unreachable. This keeps the module honest about its scope — it
//! demonstrates LFI generality, not MDVA's termination machinery — and
//! is documented as such in DESIGN.md.

use crate::lfi;
use mdr_net::{LinkCost, NodeId, INFINITE_COST};
use std::collections::{BTreeMap, BTreeSet};

/// Metric bound: distances at or above this are unreachable. Far above
/// any real path cost (marginal delays are ≤ seconds per unit flow),
/// far below [`INFINITE_COST`] so a handful of count-to-infinity rounds
/// reach it quickly.
pub const MAX_METRIC: LinkCost = 1.0e9;

/// A distance-vector update message.
#[derive(Debug, Clone, PartialEq)]
pub struct DvMessage {
    /// Originating router.
    pub from: NodeId,
    /// Acknowledgment flag (the same single-hop synchronization as
    /// MPDA's LSUs).
    pub ack: bool,
    /// `(destination, distance)` pairs; [`INFINITE_COST`] encodes
    /// unreachability.
    pub entries: Vec<(NodeId, LinkCost)>,
}

impl DvMessage {
    /// A pure acknowledgment.
    pub fn ack_only(from: NodeId) -> Self {
        DvMessage { from, ack: true, entries: Vec::new() }
    }
}

/// Events consumed by [`DvRouter`] — the distance-vector mirror of
/// [`crate::mpda::RouterEvent`].
#[derive(Debug, Clone, PartialEq)]
pub enum DvEvent {
    /// A distance-vector message arrived from a neighbor.
    Message {
        /// Sending neighbor.
        from: NodeId,
        /// The message.
        msg: DvMessage,
    },
    /// Adjacent link came up.
    LinkUp {
        /// Neighbor.
        to: NodeId,
        /// Initial cost.
        cost: LinkCost,
    },
    /// Adjacent link failed.
    LinkDown {
        /// Neighbor.
        to: NodeId,
    },
    /// Adjacent link cost changed.
    LinkCost {
        /// Neighbor.
        to: NodeId,
        /// New cost.
        cost: LinkCost,
    },
}

/// Output of one event.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DvOutput {
    /// Messages to transmit, in order.
    pub sends: Vec<(NodeId, DvMessage)>,
    /// Distances or successor sets changed.
    pub routes_changed: bool,
}

/// The distance-vector LFI router.
#[derive(Debug, Clone)]
pub struct DvRouter {
    id: NodeId,
    n: usize,
    link_costs: BTreeMap<NodeId, LinkCost>,
    /// `D^i_jk` — the distance vector reported by each neighbor.
    neighbor_dist: BTreeMap<NodeId, Vec<LinkCost>>,
    /// `D^i_j` by Eq. 13.
    dist: Vec<LinkCost>,
    /// Per-neighbor view of what we last advertised (split horizon with
    /// poisoned reverse: a destination we reach *through* `k` is
    /// advertised to `k` as unreachable, which kills two-node
    /// count-to-infinity instantly and only ever raises the `D^i_jk` a
    /// neighbor sees — the safe direction for Eq. 16).
    reported_to: BTreeMap<NodeId, Vec<LinkCost>>,
    /// `FD^i_j`.
    fd: Vec<LinkCost>,
    successors: Vec<Vec<NodeId>>,
    pending_acks: BTreeSet<NodeId>,
    needs_full: BTreeSet<NodeId>,
}

impl DvRouter {
    /// A router with address `id` in a network of `n` routers.
    pub fn new(id: NodeId, n: usize) -> Self {
        let mut dist = vec![INFINITE_COST; n];
        if id.index() < n {
            dist[id.index()] = 0.0;
        }
        DvRouter {
            id,
            n,
            link_costs: BTreeMap::new(),
            neighbor_dist: BTreeMap::new(),
            dist,
            reported_to: BTreeMap::new(),
            fd: vec![INFINITE_COST; n],
            successors: vec![Vec::new(); n],
            pending_acks: BTreeSet::new(),
            needs_full: BTreeSet::new(),
        }
    }

    /// The value we advertise for destination `j` to neighbor `k`
    /// (poisoned reverse).
    fn advertised(&self, j: usize, k: NodeId) -> LinkCost {
        if self.successors[j].contains(&k) {
            INFINITE_COST
        } else {
            self.dist[j]
        }
    }

    /// Router address.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Current distance `D^i_j` (Eq. 13).
    pub fn distance(&self, j: NodeId) -> LinkCost {
        self.dist[j.index()]
    }

    /// Current feasible distance `FD^i_j`.
    pub fn feasible_distance(&self, j: NodeId) -> LinkCost {
        self.fd[j.index()]
    }

    /// Successor set `S^i_j` per the LFI rule.
    pub fn successors(&self, j: NodeId) -> &[NodeId] {
        &self.successors[j.index()]
    }

    /// `D^i_jk` — the distance from `k` to `j` as reported by `k`.
    pub fn neighbor_distance(&self, k: NodeId, j: NodeId) -> LinkCost {
        self.neighbor_dist.get(&k).map(|v| v[j.index()]).unwrap_or(INFINITE_COST)
    }

    /// Cost of the adjacent link to `k`.
    pub fn link_cost(&self, k: NodeId) -> Option<LinkCost> {
        self.link_costs.get(&k).copied()
    }

    /// Operational neighbors, ascending.
    pub fn neighbors(&self) -> Vec<NodeId> {
        self.link_costs.keys().copied().collect()
    }

    /// True while awaiting acknowledgments.
    pub fn is_active(&self) -> bool {
        !self.pending_acks.is_empty()
    }

    /// Eq. 13 with the bounded metric.
    fn bellman_ford_distances(&self) -> Vec<LinkCost> {
        let mut d = vec![INFINITE_COST; self.n];
        d[self.id.index()] = 0.0;
        for j in 0..self.n {
            if j == self.id.index() {
                continue;
            }
            let mut best = INFINITE_COST;
            for (&k, &lk) in &self.link_costs {
                let dk = self.neighbor_dist.get(&k).map(|v| v[j]).unwrap_or(INFINITE_COST);
                let total = dk + lk;
                if total < best {
                    best = total;
                }
            }
            d[j] = if best >= MAX_METRIC { INFINITE_COST } else { best };
        }
        d
    }

    /// Eq. 17 successor sets.
    fn recompute_successors(&mut self) {
        for j in 0..self.n {
            let jd = NodeId(j as u32);
            let fdj = self.fd[j];
            let mut set = Vec::new();
            if jd != self.id {
                for &k in self.link_costs.keys() {
                    if self.neighbor_distance(k, jd) < fdj {
                        set.push(k);
                    }
                }
            }
            self.successors[j] = set;
        }
    }

    /// Handle one event — the distance-vector mirror of MPDA's Fig. 4.
    pub fn handle(&mut self, event: DvEvent) -> DvOutput {
        let was_active = self.is_active();
        let mut ack_to: Option<NodeId> = None;

        match &event {
            DvEvent::Message { from, msg } => {
                if !self.link_costs.contains_key(from) {
                    return DvOutput::default();
                }
                let v =
                    self.neighbor_dist.entry(*from).or_insert_with(|| vec![INFINITE_COST; self.n]);
                for &(j, d) in &msg.entries {
                    if j.index() < self.n {
                        v[j.index()] = d;
                    }
                }
                if msg.ack {
                    self.pending_acks.remove(from);
                }
                if !msg.entries.is_empty() {
                    ack_to = Some(*from);
                }
            }
            DvEvent::LinkUp { to, cost } => {
                self.link_costs.insert(*to, *cost);
                self.neighbor_dist.entry(*to).or_insert_with(|| vec![INFINITE_COST; self.n]);
                self.needs_full.insert(*to);
            }
            DvEvent::LinkDown { to } => {
                self.link_costs.remove(to);
                self.neighbor_dist.remove(to);
                self.pending_acks.remove(to);
                self.needs_full.remove(to);
                self.reported_to.remove(to);
            }
            DvEvent::LinkCost { to, cost } => {
                if let Some(c) = self.link_costs.get_mut(to) {
                    *c = *cost;
                }
            }
        }

        let last_ack = was_active && self.pending_acks.is_empty();
        let old_dist = self.dist.clone();
        let old_succ = self.successors.clone();

        // Steps 2-3: distance + FD update, deferred while ACTIVE — the
        // exact MPDA discipline, with Bellman-Ford in place of MTU.
        let can_initiate = !was_active || last_ack;
        if can_initiate {
            let temp = self.dist.clone();
            self.dist = self.bellman_ford_distances();
            for (j, fd) in self.fd.iter_mut().enumerate().take(self.n) {
                *fd = if was_active { temp[j].min(self.dist[j]) } else { fd.min(self.dist[j]) };
            }
        }

        self.recompute_successors();

        let mut sends = Vec::new();
        if can_initiate {
            let neighbors: Vec<NodeId> = self.link_costs.keys().copied().collect();
            for k in neighbors {
                let fresh = self.needs_full.remove(&k);
                let known = self.reported_to.entry(k).or_default().clone();
                let mut entries: Vec<(NodeId, LinkCost)> = Vec::new();
                for j in 0..self.n {
                    let adv = self.advertised(j, k);
                    let prev = if fresh || known.len() != self.n {
                        f64::NAN // force full advertisement
                    } else {
                        known[j]
                    };
                    #[expect(
                        clippy::float_cmp,
                        reason = "change detector: resend on any bit change"
                    )]
                    if prev.is_nan() || adv != prev {
                        entries.push((NodeId(j as u32), adv));
                    }
                }
                if entries.is_empty() {
                    continue;
                }
                let mut rep =
                    if known.len() == self.n { known } else { vec![INFINITE_COST; self.n] };
                for &(j, d) in &entries {
                    rep[j.index()] = d;
                }
                self.reported_to.insert(k, rep);
                let ack = ack_to == Some(k);
                if ack {
                    ack_to = None;
                }
                sends.push((k, DvMessage { from: self.id, ack, entries }));
                self.pending_acks.insert(k);
            }
        }
        if let Some(k) = ack_to {
            if self.link_costs.contains_key(&k) {
                sends.push((k, DvMessage::ack_only(self.id)));
            }
        }

        DvOutput { sends, routes_changed: old_dist != self.dist || old_succ != self.successors }
    }
}

/// Check loop-freedom of a set of DV routers for every destination
/// (used by tests after every delivery).
pub fn dv_loop_free(routers: &[DvRouter]) -> bool {
    // No edge is FD-comparable, so only a cycle can fail the check.
    let succ = |i: NodeId, j| routers[i.index()].successors(j);
    lfi::check(routers.len(), succ, |_, _| 0.0, |_, _| false).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    /// Tiny in-memory harness: FIFO queues per directed pair, random
    /// delivery order, loop-freedom asserted after every delivery.
    struct DvNet {
        routers: Vec<DvRouter>,
        queues: BTreeMap<(NodeId, NodeId), Vec<DvMessage>>,
        rng: SmallRng,
    }

    impl DvNet {
        fn new(nn: usize, seed: u64) -> Self {
            DvNet {
                routers: (0..nn).map(|i| DvRouter::new(n(i as u32), nn)).collect(),
                queues: BTreeMap::new(),
                rng: SmallRng::seed_from_u64(seed),
            }
        }

        fn inject(&mut self, at: NodeId, ev: DvEvent) {
            let out = self.routers[at.index()].handle(ev);
            for (to, msg) in out.sends {
                self.queues.entry((at, to)).or_default().push(msg);
            }
        }

        fn link_up(&mut self, a: u32, b: u32, cost: f64) {
            self.inject(n(a), DvEvent::LinkUp { to: n(b), cost });
            self.inject(n(b), DvEvent::LinkUp { to: n(a), cost });
        }

        fn step(&mut self) -> bool {
            let keys: Vec<(NodeId, NodeId)> =
                self.queues.iter().filter(|(_, q)| !q.is_empty()).map(|(&k, _)| k).collect();
            if keys.is_empty() {
                return false;
            }
            let (from, to) = keys[self.rng.gen_range(0..keys.len())];
            let msg = self.queues.get_mut(&(from, to)).unwrap().remove(0);
            let out = self.routers[to.index()].handle(DvEvent::Message { from, msg });
            for (t2, m2) in out.sends {
                self.queues.entry((to, t2)).or_default().push(m2);
            }
            true
        }

        fn drain_checked(&mut self, max: u64) {
            for _ in 0..max {
                assert!(dv_loop_free(&self.routers), "DV successor graph looped");
                if !self.step() {
                    return;
                }
            }
            panic!("no quiescence");
        }
    }

    #[test]
    fn two_node_convergence() {
        let mut net = DvNet::new(2, 1);
        net.link_up(0, 1, 2.0);
        net.drain_checked(10_000);
        assert_eq!(net.routers[0].distance(n(1)), 2.0);
        assert_eq!(net.routers[1].distance(n(0)), 2.0);
        assert_eq!(net.routers[0].successors(n(1)), &[n(1)]);
    }

    #[test]
    fn line_and_multipath() {
        // Square with unequal costs: 0-1 (1), 0-2 (2), 1-3 (1), 2-3 (1).
        let mut net = DvNet::new(4, 2);
        net.link_up(0, 1, 1.0);
        net.link_up(0, 2, 2.0);
        net.link_up(1, 3, 1.0);
        net.link_up(2, 3, 1.0);
        net.drain_checked(100_000);
        assert_eq!(net.routers[0].distance(n(3)), 2.0);
        // Both neighbors are closer to 3 than FD = 2: unequal-cost
        // multipath, exactly like MPDA.
        assert_eq!(net.routers[0].successors(n(3)), &[n(1), n(2)]);
    }

    #[test]
    fn agrees_with_mpda_at_convergence() {
        use crate::mpda::{MpdaRouter, RouterEvent};
        let edges = [(0u32, 1u32, 1.0f64), (0, 2, 2.0), (1, 2, 1.0), (1, 3, 4.0), (2, 3, 1.0)];
        // DV arm.
        let mut net = DvNet::new(4, 3);
        for &(a, b, c) in &edges {
            net.link_up(a, b, c);
        }
        net.drain_checked(100_000);
        // MPDA arm.
        let mut routers: Vec<MpdaRouter> = (0..4).map(|i| MpdaRouter::new(n(i), 4)).collect();
        let mut queue: Vec<(NodeId, NodeId, mdr_proto::LsuMessage)> = Vec::new();
        for &(a, b, c) in &edges {
            for (x, y) in [(a, b), (b, a)] {
                let out = routers[x as usize].handle(RouterEvent::LinkUp { to: n(y), cost: c });
                for s in out.sends {
                    queue.push((n(x), s.to, s.msg));
                }
            }
        }
        while let Some((from, to, msg)) = queue.pop() {
            let out = routers[to.index()].handle(RouterEvent::Lsu { from, msg });
            for s in out.sends {
                queue.push((to, s.to, s.msg));
            }
        }
        // Same distances, same successor sets: two instantiations of the
        // same framework.
        #[allow(clippy::needless_range_loop)]
        for i in 0..4usize {
            for j in 0..4u32 {
                let j = n(j);
                assert!(
                    (net.routers[i].distance(j) - routers[i].distance(j)).abs() < 1e-9
                        || (net.routers[i].distance(j) > 1e15 && routers[i].distance(j) > 1e15),
                    "distance mismatch at ({i},{j})"
                );
                assert_eq!(
                    net.routers[i].successors(j),
                    routers[i].successors(j),
                    "successors mismatch at ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn loop_free_under_churn() {
        let mut net = DvNet::new(6, 7);
        let edges = [(0u32, 1u32), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (1, 4)];
        for &(a, b) in &edges {
            net.link_up(a, b, 1.0);
        }
        net.drain_checked(200_000);
        let mut rng = SmallRng::seed_from_u64(11);
        for round in 0..40 {
            let (a, b) = edges[rng.gen_range(0..edges.len())];
            let c = rng.gen_range(1..12) as f64;
            net.inject(n(a), DvEvent::LinkCost { to: n(b), cost: c });
            for _ in 0..rng.gen_range(0..5) {
                assert!(dv_loop_free(&net.routers), "loop at churn round {round}");
                net.step();
            }
        }
        net.drain_checked(500_000);
    }

    #[test]
    fn failure_and_bounded_metric_termination() {
        // Partition a line: the cut-off side must become unreachable in
        // finitely many messages (bounded metric), not count forever.
        let mut net = DvNet::new(3, 5);
        net.link_up(0, 1, 1.0);
        net.link_up(1, 2, 1.0);
        net.drain_checked(10_000);
        assert_eq!(net.routers[0].distance(n(2)), 2.0);
        net.inject(n(1), DvEvent::LinkDown { to: n(2) });
        net.inject(n(2), DvEvent::LinkDown { to: n(1) });
        net.drain_checked(1_000_000);
        assert!(net.routers[0].distance(n(2)) >= 1e15, "2 must be unreachable");
        assert!(net.routers[0].successors(n(2)).is_empty());
    }

    #[test]
    fn fd_ordering_holds_on_successor_edges() {
        let mut net = DvNet::new(5, 9);
        for &(a, b, c) in
            &[(0u32, 1u32, 1.0f64), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0), (0, 4, 3.0), (1, 3, 1.0)]
        {
            net.link_up(a, b, c);
        }
        net.drain_checked(200_000);
        for j in 0..5u32 {
            let j = n(j);
            for r in &net.routers {
                for &k in r.successors(j) {
                    if k == j {
                        continue;
                    }
                    assert!(
                        net.routers[k.index()].feasible_distance(j) < r.feasible_distance(j),
                        "FD potential violated at ({}, {k}, {j})",
                        r.id()
                    );
                }
            }
        }
    }
}
