//! In-memory message-passing harness.
//!
//! Drives a network of routers (MPDA or PDA) over an abstract reliable
//! FIFO message layer — the paper's §4.1 assumption: "messages
//! transmitted over an operational link are received correctly and in
//! the proper sequence within a finite time and are processed by the
//! router one at a time in the order received".
//!
//! The harness deliberately *randomizes which link delivers next* (from
//! a seed), exploring many interleavings of the distributed computation;
//! safety tests check the LFI invariants after **every** delivery. Link
//! failures drop in-flight messages on the failed link, modelling real
//! loss on a dead wire.

use crate::lfi;
use crate::mpda::{MpdaRouter, RouterEvent, RouterOutput};
use crate::pda::PdaRouter;
use crate::spf::dijkstra;
use crate::table::TopoTable;
use mdr_net::{LinkCost, NodeId, Topology};
use mdr_proto::{LsuEntry, LsuMessage};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, VecDeque};

/// Anything that behaves like a routing-protocol state machine.
pub trait RouterSm {
    /// Process one event, producing messages to send.
    fn on_event(&mut self, ev: RouterEvent) -> RouterOutput;
    /// Current distance to `j`.
    fn dist(&self, j: NodeId) -> LinkCost;
}

impl RouterSm for MpdaRouter {
    fn on_event(&mut self, ev: RouterEvent) -> RouterOutput {
        self.handle(ev)
    }
    fn dist(&self, j: NodeId) -> LinkCost {
        self.distance(j)
    }
}

impl RouterSm for PdaRouter {
    fn on_event(&mut self, ev: RouterEvent) -> RouterOutput {
        self.handle(ev)
    }
    fn dist(&self, j: NodeId) -> LinkCost {
        self.distance(j)
    }
}

/// A network of routers plus in-flight messages.
pub struct Harness<R: RouterSm> {
    /// The routers, indexed by address.
    pub routers: Vec<R>,
    /// FIFO queue per directed pair (from, to).
    queues: BTreeMap<(NodeId, NodeId), VecDeque<LsuMessage>>,
    /// Current link costs of *operational* directed links.
    costs: BTreeMap<(NodeId, NodeId), LinkCost>,
    rng: SmallRng,
    delivered: u64,
}

impl Harness<MpdaRouter> {
    /// Build an MPDA network over `topo` with every link up at the cost
    /// given by `cost_of` and drive the initial convergence is NOT done —
    /// call [`Harness::run_to_quiescence`].
    pub fn mpda(topo: &Topology, cost_of: impl Fn(NodeId, NodeId) -> LinkCost, seed: u64) -> Self {
        let n = topo.node_count();
        let routers = (0..n).map(|i| MpdaRouter::new(NodeId(i as u32), n)).collect();
        Self::new(routers, topo, cost_of, seed)
    }

    /// Check both LFI safety properties right now; panics with a
    /// diagnostic on violation.
    pub fn assert_loop_free(&self) {
        if let Err((j, cycle)) = lfi::check_loop_freedom(&self.routers) {
            panic!("successor graph for destination {j} has a cycle: {cycle:?}");
        }
        if let Err((i, k, j)) = lfi::check_fd_ordering(&self.routers) {
            panic!("FD ordering violated: router {i} uses successor {k} for {j} but FD^k >= FD^i");
        }
    }
}

impl Harness<PdaRouter> {
    /// Build a PDA network (used by the LFI ablation).
    pub fn pda(topo: &Topology, cost_of: impl Fn(NodeId, NodeId) -> LinkCost, seed: u64) -> Self {
        let n = topo.node_count();
        let routers = (0..n).map(|i| PdaRouter::new(NodeId(i as u32), n)).collect();
        Self::new(routers, topo, cost_of, seed)
    }
}

impl<R: RouterSm> Harness<R> {
    /// Build a network of the given state machines over `topo`: every
    /// link comes up at the cost given by `cost_of`, and the resulting
    /// messages are queued, not yet delivered.
    pub fn new(
        mut routers: Vec<R>,
        topo: &Topology,
        cost_of: impl Fn(NodeId, NodeId) -> LinkCost,
        seed: u64,
    ) -> Self {
        let mut queues = BTreeMap::new();
        let mut costs = BTreeMap::new();
        let mut pending: Vec<(NodeId, NodeId, LsuMessage)> = Vec::new();
        for l in topo.links() {
            let c = cost_of(l.from, l.to);
            costs.insert((l.from, l.to), c);
            let out = routers[l.from.index()].on_event(RouterEvent::LinkUp { to: l.to, cost: c });
            for s in out.sends {
                pending.push((l.from, s.to, s.msg));
            }
        }
        for (from, to, msg) in pending {
            queues.entry((from, to)).or_insert_with(VecDeque::new).push_back(msg);
        }
        Harness { routers, queues, costs, rng: SmallRng::seed_from_u64(seed), delivered: 0 }
    }

    /// Number of messages delivered so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Number of messages currently in flight.
    pub fn in_flight(&self) -> usize {
        self.queues.values().map(|q| q.len()).sum()
    }

    /// Deliver one message from a randomly chosen non-empty queue.
    /// Returns false when nothing is in flight.
    pub fn step(&mut self) -> bool {
        let nonempty: Vec<(NodeId, NodeId)> =
            self.queues.iter().filter(|(_, q)| !q.is_empty()).map(|(&k, _)| k).collect();
        if nonempty.is_empty() {
            return false;
        }
        let pick = nonempty[self.rng.gen_range(0..nonempty.len())];
        let msg = self.queues.get_mut(&pick).unwrap().pop_front().unwrap();
        let (from, to) = pick;
        let out = self.routers[to.index()].on_event(RouterEvent::Lsu { from, msg });
        self.delivered += 1;
        for s in out.sends {
            self.queues.entry((to, s.to)).or_default().push_back(s.msg);
        }
        true
    }

    /// Append `entry` to an in-flight LSU that already carries entries
    /// (the `pick`-th such message, modulo how many there are) — what a
    /// faulty or hostile sender might put on the wire. The message keeps
    /// its place and its ACK obligations, so the exchange itself is
    /// undisturbed. Returns false when no such message is in flight.
    pub fn append_in_flight(&mut self, pick: usize, entry: LsuEntry) -> bool {
        let mut bearing: Vec<&mut LsuMessage> =
            self.queues.values_mut().flatten().filter(|m| !m.entries.is_empty()).collect();
        let count = bearing.len();
        match bearing.get_mut(pick % count.max(1)) {
            Some(msg) => {
                msg.entries.push(entry);
                true
            }
            None => false,
        }
    }

    /// Deliver until no messages remain (or `max` deliveries, returning
    /// `false` on exhaustion — a protocol livelock).
    pub fn run_to_quiescence(&mut self, max: u64) -> bool {
        for _ in 0..max {
            if !self.step() {
                return true;
            }
        }
        self.in_flight() == 0
    }

    /// Fail the bidirectional link `a — b`: notify both ends and drop
    /// in-flight messages between them.
    pub fn fail_link(&mut self, a: NodeId, b: NodeId) {
        for (x, y) in [(a, b), (b, a)] {
            self.costs.remove(&(x, y));
            if let Some(q) = self.queues.get_mut(&(x, y)) {
                q.clear();
            }
            let out = self.routers[x.index()].on_event(RouterEvent::LinkDown { to: y });
            for s in out.sends {
                self.queues.entry((x, s.to)).or_default().push_back(s.msg);
            }
        }
    }

    /// Restore the bidirectional link `a — b` at the given cost.
    pub fn restore_link(&mut self, a: NodeId, b: NodeId, cost: LinkCost) {
        for (x, y) in [(a, b), (b, a)] {
            self.costs.insert((x, y), cost);
            let out = self.routers[x.index()].on_event(RouterEvent::LinkUp { to: y, cost });
            for s in out.sends {
                self.queues.entry((x, s.to)).or_default().push_back(s.msg);
            }
        }
    }

    /// Change the cost of the directed link `a → b`.
    pub fn change_cost(&mut self, a: NodeId, b: NodeId, cost: LinkCost) {
        self.costs.insert((a, b), cost);
        let out = self.routers[a.index()].on_event(RouterEvent::LinkCost { to: b, cost });
        for s in out.sends {
            self.queues.entry((a, s.to)).or_default().push_back(s.msg);
        }
    }

    /// Ground truth: shortest-path distances over the *current*
    /// operational links and costs, computed centrally.
    pub fn true_distances(&self, from: NodeId) -> Vec<LinkCost> {
        let table: TopoTable = self.costs.iter().map(|(&(a, b), &c)| (a, b, c)).collect();
        dijkstra(self.routers.len(), &table, from).dist
    }

    /// Assert every router's distances match ground truth (Theorem 2 /
    /// Theorem 4 liveness at quiescence).
    pub fn assert_converged(&self) {
        for (i, r) in self.routers.iter().enumerate() {
            let truth = self.true_distances(NodeId(i as u32));
            for (j, &want) in truth.iter().enumerate() {
                let got = r.dist(NodeId(j as u32));
                assert!(
                    (got - want).abs() < 1e-9 || (got >= 1e17 && want >= 1e17),
                    "router {i} distance to {j}: got {got}, want {want}"
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdr_net::topo;

    #[test]
    fn mpda_converges_on_ring() {
        let t = topo::ring(6, 1e7, 0.001);
        let mut h = Harness::mpda(&t, |_, _| 1.0, 1);
        assert!(h.run_to_quiescence(100_000));
        h.assert_converged();
        h.assert_loop_free();
    }

    #[test]
    fn mpda_converges_on_grid_many_seeds() {
        let t = topo::grid(3, 3, 1e7, 0.001);
        for seed in 0..10 {
            let mut h = Harness::mpda(&t, |a, b| 1.0 + ((a.0 * 7 + b.0) % 5) as f64, seed);
            assert!(h.run_to_quiescence(200_000), "seed {seed} did not quiesce");
            h.assert_converged();
            h.assert_loop_free();
        }
    }

    #[test]
    fn mpda_loop_free_at_every_step_during_convergence() {
        let t = topo::grid(3, 3, 1e7, 0.001);
        let mut h = Harness::mpda(&t, |_, _| 1.0, 7);
        let mut guard = 0;
        loop {
            h.assert_loop_free();
            if !h.step() {
                break;
            }
            guard += 1;
            assert!(guard < 200_000);
        }
        h.assert_converged();
    }

    #[test]
    fn mpda_survives_link_failure_storm() {
        let t = topo::grid(3, 3, 1e7, 0.001);
        let mut h = Harness::mpda(&t, |_, _| 1.0, 3);
        assert!(h.run_to_quiescence(200_000));
        // Fail two links mid-flight, with partial delivery between.
        h.fail_link(NodeId(4), NodeId(5));
        for _ in 0..5 {
            h.step();
            h.assert_loop_free();
        }
        h.fail_link(NodeId(1), NodeId(4));
        assert!(h.run_to_quiescence(200_000));
        h.assert_converged();
        h.assert_loop_free();
        // Restore and reconverge.
        h.restore_link(NodeId(4), NodeId(5), 1.0);
        assert!(h.run_to_quiescence(200_000));
        h.assert_converged();
    }

    #[test]
    fn mpda_cost_churn_keeps_invariants() {
        let t = topo::ring(5, 1e7, 0.001);
        let mut h = Harness::mpda(&t, |_, _| 1.0, 11);
        assert!(h.run_to_quiescence(100_000));
        let mut rng = SmallRng::seed_from_u64(5);
        for round in 0..30 {
            let a = NodeId(rng.gen_range(0..5));
            let b = NodeId((a.0 + 1) % 5);
            h.change_cost(a, b, rng.gen_range(1..10) as f64);
            // Deliver a few messages, checking safety each time.
            for _ in 0..rng.gen_range(0..4) {
                h.step();
                h.assert_loop_free();
            }
            let _ = round;
        }
        assert!(h.run_to_quiescence(200_000));
        h.assert_converged();
        h.assert_loop_free();
    }

    #[test]
    fn pda_converges_on_cairn() {
        let t = topo::cairn();
        let mut h = Harness::pda(&t, |_, _| 1.0, 1);
        assert!(h.run_to_quiescence(2_000_000));
        h.assert_converged();
    }

    #[test]
    fn mpda_converges_on_cairn() {
        let t = topo::cairn();
        let mut h = Harness::mpda(&t, |_, _| 1.0, 1);
        assert!(h.run_to_quiescence(2_000_000));
        h.assert_converged();
        h.assert_loop_free();
    }

    #[test]
    fn mpda_converges_on_net1() {
        let t = topo::net1();
        let mut h = Harness::mpda(&t, |a, b| 0.5 + ((a.0 + 3 * b.0) % 7) as f64, 9);
        assert!(h.run_to_quiescence(2_000_000));
        h.assert_converged();
        h.assert_loop_free();
    }
}
