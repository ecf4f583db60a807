//! The per-router control plane, once: the paper's router process of §4
//! with no I/O, hosted unchanged by the packet engine, the fluid engine
//! and the live `mdr-node` core.
//!
//! An [`Agent`] is one [`MpdaRouter`] + one [`Allocator`] + the cost last
//! reported into MPDA per neighbor slot. The host supplies what is really
//! its own — a link-cost estimator, a transport for the LSUs, a telemetry
//! vocabulary — and carries out what the agent returns. Every mutating
//! call takes `costs(slot)`, the host's freshest estimate of the marginal
//! cost of the link in neighbor slot `slot` (`None`: nothing fresher than
//! the cost the router already holds).

#![deny(clippy::unwrap_used, clippy::expect_used)]

use mdr_flow::{AllocOutcome, Allocator, DestParams, Mode, SuccessorCost, Update};
use mdr_net::{LinkCost, NodeId, INFINITE_COST};
use mdr_routing::{MpdaRouter, RouterEvent, RouterOutput, RouterSnapshot};
use std::sync::Arc;

/// What an allocation pass did, per destination touched, ascending.
pub type Allocs = Vec<(NodeId, AllocOutcome)>;

/// One router's control plane (see the module docs).
#[derive(Debug, Clone)]
pub struct Agent {
    router: MpdaRouter,
    alloc: Allocator,
    n: usize,
    /// Configured neighbors; a neighbor's position is its *slot*.
    nbrs: Vec<NodeId>,
    /// Cost last reported into MPDA per neighbor slot.
    reported: Vec<LinkCost>,
    /// Relative cost change that warrants a new report.
    threshold: f64,
    /// The only destinations to allocate for, ascending; `None` for
    /// every destination but the router itself.
    dests: Option<Arc<[NodeId]>>,
}

impl Agent {
    /// The control plane of router `id` in a network of `n` routers with
    /// the given configured neighbors. Every link starts down; the host
    /// raises adjacencies with [`RouterEvent::LinkUp`].
    pub fn new(
        id: NodeId,
        n: usize,
        mode: Mode,
        ah_gain: f64,
        nbrs: Vec<NodeId>,
        threshold: f64,
    ) -> Self {
        Agent {
            router: MpdaRouter::new(id, n),
            alloc: Allocator::new(n, mode).with_ah_gain(ah_gain),
            n,
            reported: vec![INFINITE_COST; nbrs.len()],
            nbrs,
            threshold,
            dests: None,
        }
    }

    /// Allocate only for `dests` (ascending) — a host that carries
    /// traffic toward few destinations, shared across its agents.
    pub fn with_dests(mut self, dests: Arc<[NodeId]>) -> Self {
        self.dests = Some(dests);
        self
    }

    /// Run one router step, then IH for the destinations whose
    /// successor set it moved. Returns the router's output (LSUs to
    /// send, route changes) and what the allocator did.
    pub fn handle(
        &mut self,
        event: RouterEvent,
        costs: impl Fn(usize) -> Option<LinkCost>,
    ) -> (RouterOutput, Allocs) {
        if let RouterEvent::LinkUp { to, cost } = event {
            // A link that comes up at `cost` has reported `cost`.
            if let Some(s) = self.slot(to) {
                self.reported[s] = cost;
            }
        }
        let out = self.router.handle(event);
        // `changed` is exactly the successor-set diff, and the allocator
        // redistributes only when the set differs from the one it last
        // allocated over — so the unchanged destinations need no visit.
        let mut allocs = Allocs::new();
        for c in &out.changed {
            if self.hosts(c.dest) {
                let sc = self.successor_costs(c.dest, &costs);
                allocs.push((c.dest, self.alloc.refresh(c.dest, &sc)));
            }
        }
        (out, allocs)
    }

    /// The `T_s` tick: AH (IH where the successor set moved since the
    /// last allocation) over the host's destinations.
    pub fn short_tick(&mut self, costs: impl Fn(usize) -> Option<LinkCost>) -> Allocs {
        let mut allocs = Allocs::new();
        for at in 0..self.dests.as_ref().map_or(self.n, |d| d.len()) {
            let j = self.dests.as_ref().map_or(NodeId(at as u32), |d| d[at]);
            if j != self.router.id() {
                let sc = self.successor_costs(j, &costs);
                allocs.push((j, self.alloc.update(j, &sc, Update::ShortTerm)));
            }
        }
        allocs
    }

    /// The `T_l` report for the (up) link in `slot`, now measured at
    /// `cost`: feed it to MPDA only when it moved by more than the
    /// threshold relative to the cost last reported. `None` when it did
    /// not (or `slot` is not a neighbor slot).
    pub fn report_cost(
        &mut self,
        slot: usize,
        cost: LinkCost,
        costs: impl Fn(usize) -> Option<LinkCost>,
    ) -> Option<(RouterOutput, Allocs)> {
        let (&to, reported) = self.nbrs.get(slot).zip(self.reported.get_mut(slot))?;
        let rel = (cost - *reported).abs() / reported.max(1e-30);
        if rel > self.threshold {
            *reported = cost;
            Some(self.handle(RouterEvent::LinkCost { to, cost }, costs))
        } else {
            None
        }
    }

    /// A crash: wipe all protocol state (MPDA tables, pending ACKs, the
    /// allocation). The configuration survives.
    pub fn reset(&mut self) {
        self.router = MpdaRouter::new(self.router.id(), self.n);
        self.alloc = Allocator::new(self.n, self.alloc.mode()).with_ah_gain(self.alloc.ah_gain());
    }

    /// The hosted router (read-only: all mutation goes through events).
    #[inline]
    pub fn router(&self) -> &MpdaRouter {
        &self.router
    }

    /// Configured neighbors, in slot order.
    #[inline]
    pub fn nbrs(&self) -> &[NodeId] {
        &self.nbrs
    }

    /// Current routing parameters toward `j`.
    #[inline]
    pub fn params(&self, j: NodeId) -> &DestParams {
        self.alloc.params(j)
    }

    /// Fraction of `j`-bound traffic forwarded to neighbor `k`.
    #[inline]
    pub fn fraction(&self, j: NodeId, k: NodeId) -> f64 {
        self.alloc.fraction(j, k)
    }

    /// True when the router is PASSIVE (not waiting on any ACK) — the
    /// per-node half of every convergence predicate.
    #[inline]
    pub fn is_passive(&self) -> bool {
        !self.router.is_active()
    }

    /// Safety snapshot of the current routing state.
    pub fn snapshot(&self) -> RouterSnapshot {
        self.router.snapshot()
    }

    /// Is `j` a destination this agent allocates for?
    fn hosts(&self, j: NodeId) -> bool {
        j != self.router.id() && self.dests.as_ref().is_none_or(|d| d.binary_search(&j).is_ok())
    }

    /// Neighbor slot of `k`, if configured.
    pub fn slot(&self, k: NodeId) -> Option<usize> {
        self.nbrs.iter().position(|&x| x == k)
    }

    /// Marginal distances `D^i_jk + l^i_k` through the current successor
    /// set toward `j`, at the freshest local link-cost estimates.
    fn successor_costs(
        &self,
        j: NodeId,
        costs: &impl Fn(usize) -> Option<LinkCost>,
    ) -> Vec<SuccessorCost> {
        self.router
            .successors(j)
            .iter()
            .filter_map(|&k| {
                let lk = self.slot(k).and_then(costs).or_else(|| self.router.link_cost(k))?;
                Some(SuccessorCost::new(k, self.router.neighbor_distance(k, j) + lk))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdr_net::Topology;
    use mdr_proto::LsuMessage;
    use mdr_routing::harness::RouterSm;
    use mdr_routing::Harness;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    /// An agent beside a *shadow* allocator driven the way both
    /// simulators drove theirs before the agent existed — refreshed over
    /// every destination whenever routes changed — and asserted bit-equal
    /// after every step.
    struct Shadowed {
        agent: Agent,
        shadow: Allocator,
        /// Per slot: the host-side link-cost estimate.
        est: Vec<f64>,
    }

    impl Shadowed {
        /// The pre-agent `successor_costs`, kept as the reference.
        fn reference_costs(&self, j: NodeId) -> Vec<SuccessorCost> {
            let r = self.agent.router();
            r.successors(j)
                .iter()
                .map(|&k| {
                    let lk = self.est[self.agent.slot(k).unwrap()];
                    SuccessorCost::new(k, r.neighbor_distance(k, j) + lk)
                })
                .collect()
        }

        fn dests(&self) -> impl Iterator<Item = NodeId> {
            let id = self.agent.router().id();
            (0..self.agent.n as u32).map(NodeId).filter(move |&j| j != id)
        }

        fn tick(&mut self) {
            let est = &self.est;
            self.agent.short_tick(|s| Some(est[s]));
            for j in self.dests() {
                let sc = self.reference_costs(j);
                self.shadow.update(j, &sc, Update::ShortTerm);
            }
            self.assert_agrees();
        }

        fn assert_agrees(&self) {
            let bits = |p: &DestParams| -> Vec<(NodeId, u64)> {
                p.pairs().iter().map(|&(k, f)| (k, f.to_bits())).collect()
            };
            for j in self.dests() {
                assert_eq!(
                    bits(self.agent.params(j)),
                    bits(self.shadow.params(j)),
                    "router {} toward {j}: changed-only IH diverged from refresh-all",
                    self.agent.router().id()
                );
            }
        }
    }

    impl RouterSm for Shadowed {
        /// A `LinkCost` is a new measurement offered to `report_cost`;
        /// everything else goes straight to `handle`.
        fn on_event(&mut self, ev: RouterEvent) -> RouterOutput {
            if let RouterEvent::LinkUp { to, cost } | RouterEvent::LinkCost { to, cost } = ev {
                self.est[self.agent.slot(to).unwrap()] = cost;
            }
            let est = &self.est;
            let costs = |s: usize| Some(est[s]);
            let out = match ev {
                RouterEvent::LinkCost { to, cost } => {
                    let slot = self.agent.slot(to).unwrap();
                    self.agent.report_cost(slot, cost, costs).unwrap_or_default().0
                }
                ev => self.agent.handle(ev, costs).0,
            };
            if out.routes_changed {
                for j in self.dests() {
                    let sc = self.reference_costs(j);
                    self.shadow.refresh(j, &sc);
                }
            }
            self.assert_agrees();
            out
        }

        fn dist(&self, j: NodeId) -> LinkCost {
            self.agent.router().distance(j)
        }
    }

    fn agents(topo: &Topology, mode: Mode) -> Vec<Agent> {
        let nn = topo.node_count();
        let nbrs = |i| topo.out_links(n(i)).map(|(_, l)| l.to).collect();
        (0..nn as u32).map(|i| Agent::new(n(i), nn, mode, 0.4, nbrs(i), 0.05)).collect()
    }

    /// The agents over the routing crate's in-memory FIFO wire, every
    /// link up at cost 1.
    fn network(topo: &Topology, mode: Mode, seed: u64) -> Harness<Shadowed> {
        let shadowed = agents(topo, mode)
            .into_iter()
            .map(|agent| Shadowed {
                shadow: Allocator::new(topo.node_count(), mode).with_ah_gain(0.4),
                est: vec![1.0; agent.nbrs().len()],
                agent,
            })
            .collect();
        Harness::new(shadowed, topo, |_, _| 1.0, seed)
    }

    fn line3() -> Topology {
        mdr_net::TopologyBuilder::new()
            .nodes(3)
            .bidi(n(0), n(1), 1e6, 0.001)
            .bidi(n(1), n(2), 1e6, 0.001)
            .build()
            .unwrap()
    }

    #[test]
    fn changed_only_ih_equals_refresh_all() {
        for (name, topo) in [("cairn", mdr_net::topo::cairn()), ("net1", mdr_net::topo::net1())] {
            let links: Vec<(NodeId, NodeId)> =
                topo.links().iter().filter(|l| l.from < l.to).map(|l| (l.from, l.to)).collect();
            for mode in [Mode::Multipath, Mode::SinglePath] {
                for seed in 0..4u64 {
                    let mut rng = SmallRng::seed_from_u64(seed);
                    let mut net = network(&topo, mode, seed);
                    let mut up = vec![true; links.len()];
                    for _ in 0..600 {
                        let li = rng.gen_range(0..links.len());
                        let (a, b) = links[li];
                        match rng.gen_range(0..10) {
                            0..=5 => {
                                net.step();
                            }
                            6 if up[li] => net.change_cost(a, b, rng.gen_range(0.2..5.0)),
                            7 => net.routers[a.index()].tick(),
                            8 if up[li] => {
                                up[li] = false;
                                net.fail_link(a, b);
                            }
                            9 if !up[li] => {
                                up[li] = true;
                                net.restore_link(a, b, rng.gen_range(0.2..5.0));
                            }
                            _ => {}
                        }
                    }
                    assert!(net.run_to_quiescence(1_000_000), "{name} {mode:?} seed {seed}");
                    assert!(net.routers.iter().all(|r| r.agent.is_passive()));
                }
            }
        }
    }

    #[test]
    fn boot_link_ups_change_no_successor_set_and_allocate_nothing() {
        let topo = mdr_net::topo::net1();
        let mut agents = agents(&topo, Mode::Multipath);
        for l in topo.links() {
            let boot = RouterEvent::LinkUp { to: l.to, cost: 1.0 };
            let (out, allocs) = agents[l.from.index()].handle(boot, |_| None);
            assert!(out.changed.is_empty(), "{} -> {}: {:?}", l.from, l.to, out.changed);
            assert!(allocs.is_empty());
        }
    }

    #[test]
    fn report_cost_fires_exactly_on_the_engines_inequality() {
        let theta = 0.05;
        let fresh = |reported: f64| {
            let mut a = Agent::new(n(0), 2, Mode::Multipath, 0.4, vec![n(1)], theta);
            a.handle(RouterEvent::LinkUp { to: n(1), cost: reported }, |_| None);
            a
        };
        for reported in [0.0f64, 1e-40, 1e-3, 1.0, 250.0] {
            for cost in
                [0.0f64, 1e-31, 0.94e-3, 0.96e-3, 1.04e-3, 1.06e-3, 0.95, 1.05, 1.0500001, 300.0]
            {
                let want = (cost - reported).abs() / reported.max(1e-30) > theta;
                let mut a = fresh(reported);
                let got = a.report_cost(0, cost, |_| None);
                assert_eq!(got.is_some(), want, "reported {reported} cost {cost}");
                if want {
                    assert_eq!(a.router().link_cost(n(1)), Some(cost));
                    assert!(a.report_cost(0, cost, |_| None).is_none(), "now reported");
                }
            }
        }
        // A just-restored link has reported its restore cost, whatever
        // it had reported in its previous life.
        let mut a = fresh(1.0);
        assert!(a.report_cost(0, 9.0, |_| None).is_some());
        a.handle(RouterEvent::LinkDown { to: n(1) }, |_| None);
        a.handle(RouterEvent::LinkUp { to: n(1), cost: 1.0 }, |_| None);
        assert!(a.report_cost(0, 1.04, |_| None).is_none());
        assert!(a.report_cost(0, 9.0, |_| None).is_some());
        // Not a neighbor slot: nothing to report.
        assert!(a.report_cost(1, 9.0, |_| None).is_none());
    }

    #[test]
    fn agents_converge_like_the_harness() {
        let topo = line3();
        let mut net = network(&topo, Mode::Multipath, 1);
        let mut routers = Harness::mpda(&topo, |_, _| 1.0, 1);
        assert!(net.run_to_quiescence(10_000) && routers.run_to_quiescence(10_000));
        for (a, r) in net.routers.iter().zip(&routers.routers) {
            assert!(a.agent.is_passive());
            assert_eq!(a.agent.snapshot(), r.snapshot());
        }
        assert_eq!(net.routers[0].agent.router().distance(n(2)), 2.0);
        assert_eq!(net.routers[0].agent.fraction(n(2), n(1)), 1.0);
    }

    #[test]
    fn neighbor_down_withdraws_routes() {
        let mut net = network(&line3(), Mode::Multipath, 1);
        assert!(net.run_to_quiescence(10_000));
        let a = &mut net.routers[1].agent;
        let (out, allocs) = a.handle(RouterEvent::LinkDown { to: n(2) }, |_| None);
        // Router 1 must now consider 2 unreachable, tell router 0 via a
        // Delete-bearing LSU, and stop forwarding toward 2.
        assert_eq!(a.router().distance(n(2)), INFINITE_COST);
        assert!(out.sends.iter().any(|s| s.to == n(0)));
        assert!(a.router().successors(n(2)).is_empty());
        assert_eq!(allocs.iter().map(|&(j, _)| j).collect::<Vec<_>>(), [n(2)]);
        assert!(a.params(n(2)).is_empty());
    }

    #[test]
    fn only_hosted_destinations_are_allocated_and_reset_wipes_state() {
        let mut a =
            Agent::new(n(0), 3, Mode::Multipath, 0.4, vec![n(1)], 0.05).with_dests([n(2)].into());
        a.handle(RouterEvent::LinkUp { to: n(1), cost: 1.0 }, |_| None);
        // The neighbor's tree, acknowledging our boot LSU (so the
        // ACTIVE phase ends and MTU runs).
        let entries = vec![mdr_proto::LsuEntry::add(n(1), n(2), 1.0)];
        let tree =
            RouterEvent::Lsu { from: n(1), msg: LsuMessage { from: n(1), ack: true, entries } };
        let (out, allocs) = a.handle(tree, |_| None);
        assert_eq!(out.changed.len(), 2, "successors toward 1 and 2 both appeared");
        assert_eq!(allocs.iter().map(|&(j, _)| j).collect::<Vec<_>>(), [n(2)]);
        assert!(a.params(n(1)).is_empty(), "1 is not a hosted destination");
        assert_eq!(a.short_tick(|_| None).len(), 1);
        a.reset();
        assert_eq!(a.router().distance(n(1)), INFINITE_COST);
        assert!(a.params(n(2)).is_empty() && a.is_passive());
    }
}
