//! Differential oracle for [`MpdaRouter::handle`].
//!
//! The router does work only where an event moved something: NTU skips
//! pure ACKs and recomputes `D^i_jk` only below the tails an LSU wrote,
//! Eq. 17 visits only the destinations whose `FD^i_j` or some `D^i_jk`
//! moved, MTU re-picks preferred neighbors only where `D^i_jk` moved and
//! repairs its tree from the heads whose merged run moved, and all
//! per-neighbor state sits in address-ordered slots. This module
//! recomputes everything from the tables alone, the slow obvious way — a
//! fresh Dijkstra per neighbor table, Eq. 17 over every `(j, k)`, the
//! successor diff from before/after copies, and MTU on ordered maps
//! after every MTU, skipped or not — and compares after **every** event
//! of seeded random schedules. The work counters in
//! [`super::RouterStats`] show that each shortcut and each fall-back
//! was actually taken, and `spf_settled` is checked against the tree
//! each whole MTU Dijkstra kept.

use super::{MpdaRouter, RouteChange, RouterEvent, RouterOutput, RouterStats, UpdateRule};
use crate::harness::RouterSm;
use crate::spf::dijkstra;
use crate::table::TopoTable;
use crate::Harness;
use mdr_net::{gen, topo, LinkCost, NodeId, Topology, INFINITE_COST};
use mdr_proto::{LsuEntry, LsuMessage};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};

/// MTU steps 2–7 on ordered maps, as the router ran them before its
/// tables became neighbor slots: the merged table's tree and distances.
fn reference_mtu(r: &MpdaRouter) -> (TopoTable, Vec<LinkCost>) {
    let core = &r.core;
    let costs: BTreeMap<NodeId, LinkCost> = core.nbrs.iter().map(|nb| (nb.id, nb.cost)).collect();
    let mut merged = TopoTable::new();
    for j in (0..core.n as u32).map(NodeId).filter(|&j| j != core.id) {
        let mut best: Option<(LinkCost, NodeId)> = None;
        for (&k, &lk) in &costs {
            let d = r.neighbor_distance(k, j);
            if d >= INFINITE_COST {
                continue;
            }
            match best {
                Some((b, _)) if d + lk >= b => {}
                _ => best = Some((d + lk, k)),
            }
        }
        if let Some((_, p)) = best {
            let tp = &core.nbrs[core.slot(p).unwrap()].topo;
            for (tail, c) in tp.links_from(j) {
                merged.insert(j, tail, c);
            }
        }
    }
    for (&k, &lk) in &costs {
        merged.insert(core.id, k, lk);
    }
    let spf = dijkstra(core.n, &merged, core.id);
    (spf.tree_links(&merged), spf.dist)
}

/// A router under audit: every event it handles is checked against the
/// reference before the output is passed on.
struct Audited {
    r: MpdaRouter,
    rule: UpdateRule,
    /// Neighbors an LSU has arrived from since their link came up — the
    /// oracle's own account of which `D^i_jk` rows are past their seed.
    heard: BTreeSet<NodeId>,
    events: u64,
}

impl Audited {
    fn new(id: NodeId, n: usize, rule: UpdateRule) -> Self {
        Audited { r: MpdaRouter::with_rule(id, n, rule), rule, heard: BTreeSet::new(), events: 0 }
    }

    fn handle(&mut self, ev: RouterEvent) -> RouterOutput {
        let old_succ: Vec<Vec<NodeId>> =
            (0..self.r.core.n as u32).map(|j| self.r.successors(NodeId(j)).to_vec()).collect();
        let old_dist = self.r.core.dist.clone();
        let old_stats = self.r.stats();
        match &ev {
            RouterEvent::Lsu { from, .. } if self.r.link_cost(*from).is_some() => {
                self.heard.insert(*from);
            }
            RouterEvent::LinkUp { to, .. } if self.r.link_cost(*to).is_none() => {
                self.heard.remove(to);
            }
            RouterEvent::LinkDown { to } => {
                self.heard.remove(to);
            }
            _ => {}
        }
        let out = self.r.handle(ev.clone());
        self.events += 1;
        self.audit(&ev, &old_succ, &old_dist, &old_stats, &out);
        out
    }

    fn audit(
        &self,
        ev: &RouterEvent,
        old_succ: &[Vec<NodeId>],
        old_dist: &[LinkCost],
        old: &RouterStats,
        out: &RouterOutput,
    ) {
        let (r, core) = (&self.r, &self.r.core);
        let n = core.n;
        let at = format!("router {} after {ev:?}", core.id);
        assert!(core.nbrs.windows(2).all(|w| w[0].id < w[1].id), "{at}: slots not ascending");
        assert_eq!(core.neighbor_dist.len(), core.nbrs.len() * n, "{at}");
        // D^i_jk: a fresh Dijkstra over T^i_k, or the seed before any LSU.
        for (s, nb) in core.nbrs.iter().enumerate() {
            let fresh = if self.heard.contains(&nb.id) {
                dijkstra(n, &nb.topo, nb.id).dist
            } else {
                vec![INFINITE_COST; n]
            };
            assert_eq!(core.dist_row(s), fresh, "{at}: D^i_j{} stale", nb.id);
            assert!(self.heard.contains(&nb.id) || nb.topo.is_empty(), "{at}: T^i_{}", nb.id);
        }
        // S^i_j: Eq. 17 over every destination and every neighbor.
        for j in (0..n as u32).map(NodeId) {
            let fd = r.feasible_distance(j);
            let admitted = |k: &NodeId| match self.rule {
                UpdateRule::Lfi => r.neighbor_distance(*k, j) < fd,
                UpdateRule::NonStrictSuccessors => {
                    r.neighbor_distance(*k, j) <= fd && fd < INFINITE_COST
                }
            };
            let want: Vec<NodeId> = if j == core.id {
                Vec::new()
            } else {
                r.neighbors().into_iter().filter(admitted).collect()
            };
            assert_eq!(r.successors(j), want, "{at}: S^i_{j}");
        }
        // What the event reported: the successor diff, and whether any
        // distance or successor set moved.
        let changed: Vec<RouteChange> = (0..n)
            .filter(|&j| old_succ[j] != r.successors(NodeId(j as u32)))
            .map(|j| RouteChange {
                dest: NodeId(j as u32),
                old: old_succ[j].clone(),
                new: r.successors(NodeId(j as u32)).to_vec(),
            })
            .collect();
        assert_eq!(out.changed, changed, "{at}: changed");
        assert_eq!(out.routes_changed, old_dist != core.dist || !changed.is_empty(), "{at}");
        // T^i and D^i_j, whenever this event ran MTU.
        let now = r.stats();
        if now.mtu_runs > old.mtu_runs {
            let (tree, dist) = reference_mtu(r);
            assert_eq!(core.main_topo, tree, "{at}: T^i");
            assert_eq!(core.dist, dist, "{at}: D^i_j");
        } else {
            assert_eq!(core.dist, old_dist, "{at}: distances moved without MTU");
        }
        // Nodes settled: a whole MTU Dijkstra settles the router and one
        // node per link of the tree it keeps; a repair, a skipped MTU, a
        // patch and a tree walk settle none.
        if now.ntu_dijkstras == old.ntu_dijkstras {
            let ran = now.mtu_dijkstras > old.mtu_dijkstras;
            let want = if ran { 1 + core.main_topo.len() as u64 } else { 0 };
            assert_eq!(now.spf_settled - old.spf_settled, want, "{at}: nodes settled");
        }
    }
}

impl RouterSm for Audited {
    fn on_event(&mut self, ev: RouterEvent) -> RouterOutput {
        self.handle(ev)
    }
    fn dist(&self, j: NodeId) -> LinkCost {
        self.r.distance(j)
    }
}

/// A seeded schedule of link failures, repairs and cost changes with a
/// few deliveries between each, every event audited. With `odd`, also
/// links that come up twice without failing (a full-table sync over a
/// kept `T^i_k` can leave a second in-link) and cost changes to 0 (an
/// addition that does not increase). Returns the routers' counters,
/// summed.
fn churn(t: &Topology, rule: UpdateRule, seed: u64, rounds: usize, odd: bool) -> RouterStats {
    let n = t.node_count();
    let routers = (0..n as u32).map(|i| Audited::new(NodeId(i), n, rule)).collect();
    let mut rng = SmallRng::seed_from_u64(seed);
    let cost = |a: NodeId, b: NodeId| 1.0 + ((a.0 * 31 + b.0 * 17 + seed as u32) % 40) as f64 / 8.0;
    let mut h = Harness::new(routers, t, cost, seed);
    for _ in 0..rng.gen_range(0..400) {
        h.step();
    }
    let phys: Vec<(NodeId, NodeId)> =
        t.links().iter().filter(|l| l.from < l.to).map(|l| (l.from, l.to)).collect();
    let mut down: BTreeSet<usize> = BTreeSet::new();
    for _ in 0..rounds {
        let i = rng.gen_range(0..phys.len());
        let (a, b) = phys[i];
        let c = rng.gen_range(4..80) as f64 / 8.0;
        match rng.gen_range(0..if odd { 6 } else { 4 }) {
            0 if !down.contains(&i) => {
                down.insert(i);
                h.fail_link(a, b);
            }
            1 if down.remove(&i) => h.restore_link(a, b, c),
            4 if !down.contains(&i) => h.restore_link(a, b, c),
            5 if !down.contains(&i) => h.change_cost(a, b, 0.0),
            _ if !down.contains(&i) => h.change_cost(a, b, c),
            _ => {}
        }
        for _ in 0..rng.gen_range(0..40) {
            h.step();
        }
    }
    assert!(h.run_to_quiescence(5_000_000), "did not quiesce");
    let audited: u64 = h.routers.iter().map(|a| a.events).sum();
    assert!(audited > h.delivered(), "every delivery and every link event is audited");
    h.routers.iter().map(|a| a.r.stats()).fold(RouterStats::default(), |t, s| RouterStats {
        events: t.events + s.events,
        mtu_runs: t.mtu_runs + s.mtu_runs,
        mtu_dijkstras: t.mtu_dijkstras + s.mtu_dijkstras,
        mtu_repairs: t.mtu_repairs + s.mtu_repairs,
        mtu_aborts: t.mtu_aborts + s.mtu_aborts,
        ntu_patches: t.ntu_patches + s.ntu_patches,
        ntu_tree_walks: t.ntu_tree_walks + s.ntu_tree_walks,
        ntu_dijkstras: t.ntu_dijkstras + s.ntu_dijkstras,
        eq17_dests: t.eq17_dests + s.eq17_dests,
        spf_settled: t.spf_settled + s.spf_settled,
        ..t
    })
}

#[test]
fn kept_state_equals_the_reference_after_every_event() {
    let ba60 = gen::barabasi_albert(60, 2, 5);
    for rule in [UpdateRule::Lfi, UpdateRule::NonStrictSuccessors] {
        for seed in 0..4 {
            churn(&topo::cairn(), rule, seed, 30, false);
            churn(&topo::net1(), rule, 100 + seed, 30, false);
        }
        // The shortcuts were taken, not just harmless: NTU patches and
        // MTU repairs outnumber the whole computations, some MTUs found
        // nothing moved, and Eq. 17 visited a small share of the
        // `events × (n − 1)` destinations a full sweep would.
        let s = churn(&ba60, rule, 7, 80, false);
        assert!(s.ntu_patches > s.ntu_tree_walks + s.ntu_dijkstras, "{s:?}");
        assert!(s.mtu_repairs > s.mtu_dijkstras, "{s:?}");
        assert!(s.mtu_repairs + s.mtu_dijkstras < s.mtu_runs, "{s:?}");
        assert!(s.eq17_dests > 0 && s.eq17_dests * 4 < s.events * 59, "{s:?}");
        let spfs = s.mtu_dijkstras + s.ntu_dijkstras;
        assert!(s.spf_settled >= spfs && s.spf_settled <= 60 * spfs, "{s:?}");
        // And every fall-back ran: whole walks (first LSUs, zero costs),
        // NTU Dijkstras (second in-links), whole MTUs (links up and
        // down) and aborted repairs (zero costs).
        let s = churn(&ba60, rule, 8, 40, true);
        assert!(s.ntu_tree_walks > 0 && s.ntu_dijkstras > 0, "{s:?}");
        assert!(s.mtu_dijkstras > 0 && s.mtu_aborts > 0, "{s:?}");
    }
}

fn n(i: u32) -> NodeId {
    NodeId(i)
}

fn ack_from(k: u32) -> RouterEvent {
    RouterEvent::Lsu { from: n(k), msg: LsuMessage::ack_only(n(k)) }
}

fn lsu(k: u32, entries: Vec<LsuEntry>) -> RouterEvent {
    RouterEvent::Lsu { from: n(k), msg: LsuMessage::update(n(k), entries) }
}

fn tree_from(k: u32) -> RouterEvent {
    lsu(k, vec![LsuEntry::add(n(k), n(2), 1.0)])
}

/// The one pure ACK that must recompute `D^i_jk`: until the first LSU after
/// link-up, `D^i_kk` is the infinite seed and `k` is not a successor
/// toward itself.
#[test]
fn ack_only_as_first_lsu_after_link_up_computes_distances() {
    let mut a = Audited::new(n(0), 3, UpdateRule::Lfi);
    a.handle(RouterEvent::LinkUp { to: n(1), cost: 1.0 });
    assert_eq!(a.r.neighbor_distance(n(1), n(1)), INFINITE_COST);
    assert!(a.r.successors(n(1)).is_empty());
    let out = a.handle(ack_from(1));
    assert!(a.r.neighbor_distance(n(1), n(1)) < INFINITE_COST);
    assert_eq!(a.r.successors(n(1)), &[n(1)]);
    assert_eq!(out.changed, vec![RouteChange { dest: n(1), old: vec![], new: vec![n(1)] }]);
    assert!(out.routes_changed);
}

/// A link that goes down and comes back starts over: empty `T^i_k`,
/// seeded `D^i_jk`, and the first-LSU exemption armed again.
#[test]
fn link_down_then_up_resets_tables_and_flag() {
    let mut a = Audited::new(n(0), 3, UpdateRule::Lfi);
    a.handle(RouterEvent::LinkUp { to: n(1), cost: 1.0 });
    a.handle(tree_from(1));
    assert_eq!(a.r.neighbor_distance(n(1), n(2)), 1.0);
    a.handle(RouterEvent::LinkDown { to: n(1) });
    a.handle(RouterEvent::LinkUp { to: n(1), cost: 2.0 });
    let nb = &a.r.core.nbrs[0];
    assert!(nb.topo.is_empty() && !nb.dist_computed);
    assert!((0..3).all(|j| a.r.neighbor_distance(n(1), n(j)) >= INFINITE_COST));
    a.handle(ack_from(1));
    assert!(a.r.core.nbrs[0].dist_computed);
    assert!(a.r.neighbor_distance(n(1), n(1)) < INFINITE_COST);
    assert_eq!(a.r.neighbor_distance(n(1), n(2)), INFINITE_COST, "the old tree is gone");
    // Coming up twice without going down keeps what the neighbor said.
    a.handle(tree_from(1));
    a.handle(RouterEvent::LinkUp { to: n(1), cost: 3.0 });
    assert_eq!(a.r.neighbor_distance(n(1), n(2)), 1.0);
    assert_eq!(a.r.link_cost(n(1)), Some(3.0));
}

/// A pure ACK from a neighbor with a non-empty table skips Dijkstra; the
/// audit's fresh Dijkstra over the same table must find nothing stale.
#[test]
fn ack_only_over_a_non_empty_table_changes_no_distance() {
    let mut a = Audited::new(n(0), 3, UpdateRule::Lfi);
    a.handle(RouterEvent::LinkUp { to: n(1), cost: 1.0 });
    a.handle(tree_from(1));
    let before = (a.r.core.nbrs[0].topo.clone(), a.r.core.neighbor_dist.clone());
    a.handle(ack_from(1));
    a.handle(ack_from(1));
    assert_eq!((a.r.core.nbrs[0].topo.clone(), a.r.core.neighbor_dist.clone()), before);
    assert_eq!(a.r.distance(n(2)), 2.0);
}

/// A link that comes up twice without going down keeps `T^i_k`, and the
/// neighbor's full-table sync only adds: the link its tree dropped
/// stays. `T^i_k` then has a node with two in-links, and NTU must fall
/// back to Dijkstra.
#[test]
fn a_stale_link_after_a_double_link_up_falls_back_to_dijkstra() {
    let mut a = Audited::new(n(0), 4, UpdateRule::Lfi);
    a.handle(RouterEvent::LinkUp { to: n(1), cost: 1.0 });
    a.handle(lsu(1, vec![LsuEntry::add(n(1), n(2), 1.0), LsuEntry::add(n(2), n(3), 1.0)]));
    a.handle(ack_from(1));
    a.handle(RouterEvent::LinkUp { to: n(1), cost: 1.0 });
    let walks = a.r.stats().ntu_tree_walks;
    assert_eq!((walks, a.r.stats().ntu_dijkstras), (1, 0));
    // Neighbor 1's tree is now 1 → 3 → 2; the sync does not delete 2 → 3
    // or 1 → 2, so 2 has in-links from 1 and 3.
    a.handle(lsu(1, vec![LsuEntry::add(n(1), n(3), 1.0), LsuEntry::add(n(3), n(2), 1.0)]));
    let nb = &a.r.core.nbrs[0];
    assert_eq!((nb.topo.cost(n(1), n(2)), nb.topo.cost(n(3), n(2))), (Some(1.0), Some(1.0)));
    assert_eq!((a.r.stats().ntu_tree_walks, a.r.stats().ntu_dijkstras), (walks, 1));
    assert_eq!(a.r.neighbor_distance(n(1), n(2)), 1.0);
    assert_eq!(a.r.neighbor_distance(n(1), n(3)), 1.0);
}

/// Cost changes that a non-preferred neighbor reports leave the merged
/// table as it was: MTU runs, skips Dijkstra, and reports nothing. The
/// audit rebuilds MTU from scratch after each of them.
#[test]
fn cost_changes_from_a_non_preferred_neighbor_skip_mtu_dijkstra() {
    // Neighbor 1 is 1 from 3, neighbor 2 is 5 from 3: 1 is preferred for
    // head 3, so 2's report of 3 → 4 is never merged.
    let mut a = Audited::new(n(0), 5, UpdateRule::Lfi);
    for k in [1, 2] {
        a.handle(RouterEvent::LinkUp { to: n(k), cost: 1.0 });
    }
    a.handle(lsu(1, vec![LsuEntry::add(n(1), n(3), 1.0), LsuEntry::add(n(3), n(4), 1.0)]));
    a.handle(lsu(2, vec![LsuEntry::add(n(2), n(3), 5.0), LsuEntry::add(n(3), n(4), 2.0)]));
    // Every ACK may end a phase whose MTU sends again: ACK until quiet.
    for _ in 0..4 {
        for k in [1, 2] {
            a.handle(ack_from(k));
        }
    }
    assert!(!a.r.is_active());
    let before = a.r.stats();
    for c in [3.0, 0.5, 7.0] {
        let out = a.handle(lsu(2, vec![LsuEntry::change(n(3), n(4), c)]));
        assert_eq!(out.sends, vec![super::SendTo { to: n(2), msg: LsuMessage::ack_only(n(0)) }]);
        assert_eq!(a.r.neighbor_distance(n(2), n(4)), 5.0 + c);
    }
    let after = a.r.stats();
    assert_eq!(after.mtu_runs, before.mtu_runs + 3);
    assert_eq!(after.mtu_dijkstras, before.mtu_dijkstras);
    assert_eq!(a.r.distance(n(4)), 3.0);
    // The same report from the preferred neighbor moves the tree, which
    // MTU repairs.
    a.handle(lsu(1, vec![LsuEntry::change(n(3), n(4), 4.0)]));
    assert_eq!(a.r.stats().mtu_dijkstras, after.mtu_dijkstras);
    assert_eq!(a.r.stats().mtu_repairs, after.mtu_repairs + 1);
    assert_eq!(a.r.distance(n(4)), 6.0);
}
