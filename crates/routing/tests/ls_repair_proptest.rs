//! NTU's patch and MTU's repair against whole recomputes, after every
//! message.
//!
//! * `ntu_patch_equals_dijkstra`: random LSU sequences into one neighbor
//!   slot — edits of a tree rooted at the neighbor, plus stray entries
//!   with ids `≥ n` and `u32::MAX`, costs of `0`, NaN and `±1e18`, second
//!   in-links and cycles. The kept `D^i_jk` row must equal
//!   `dijkstra(n, T^i_k, k).dist` bit for bit.
//! * `mtu_repair_equals_whole_recompute`: random run, preference and
//!   adjacency edits over several neighbors, costs on a 1/8 grid so that
//!   ties are common. `T^i`, `D^i_j` and the LSUs sent must equal MTU
//!   recomputed from the neighbor tables on ordered maps.
//!
//! Both drive [`PdaRouter`], which runs NTU and MTU on every event.

use mdr_net::{LinkCost, NodeId, INFINITE_COST};
use mdr_proto::{LsuEntry, LsuMessage};
use mdr_routing::mpda::RouterStats;
use mdr_routing::spf::dijkstra;
use mdr_routing::{PdaRouter, RouterEvent, SendTo, TopoTable};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// A cost of any kind the wire can carry (as in `tree_walk_proptest`).
fn cost(rng: &mut SmallRng) -> f64 {
    match rng.gen_range(0..12) {
        0 => 0.0,
        1 => INFINITE_COST,
        2 => 2.0 * INFINITE_COST,
        3 => INFINITE_COST / 2.0,
        4 => f64::INFINITY,
        5 => f64::NAN,
        6 => -INFINITE_COST,
        _ => grid(rng),
    }
}

/// A cost on the 1/8 grid, so that equal sums are common.
fn grid(rng: &mut SmallRng) -> f64 {
    rng.gen_range(1..24) as f64 / 8.0
}

/// An id below `n` mostly; sometimes just past it, or `u32::MAX`.
fn id(rng: &mut SmallRng, n: usize) -> NodeId {
    match rng.gen_range(0..12) {
        0 => NodeId(n as u32 + rng.gen_range(0..3u32)),
        1 => NodeId(u32::MAX),
        _ => NodeId(rng.gen_range(0..n as u32)),
    }
}

/// How far a case strays from the tables an honest neighbor sends.
#[derive(Clone, Copy, PartialEq)]
enum Stray {
    /// Edits of a tree, grid costs, and links to ids outside `0..n`.
    None,
    /// Also stray links with grid costs: second in-links, cycles.
    Links,
    /// Also stray links with any cost.
    Costs,
}

/// A neighbor's shortest-path tree as the test edits it: each node's
/// parent and in-link cost. The neighbor sends the edits as LSUs.
struct TreeModel {
    root: u32,
    up: BTreeMap<u32, (u32, f64)>,
}

impl TreeModel {
    fn new(root: u32) -> Self {
        TreeModel { root, up: BTreeMap::new() }
    }

    /// True if `u` lies in the subtree of `v`.
    fn below(&self, u: u32, v: u32) -> bool {
        let mut at = u;
        for _ in 0..=self.up.len() {
            if at == v {
                return true;
            }
            match self.up.get(&at) {
                Some(&(p, _)) => at = p,
                None => return false,
            }
        }
        true
    }

    /// One edit: re-parent a node, change its in-link's cost, or detach
    /// it; the entries that say so.
    fn edit(
        &mut self,
        rng: &mut SmallRng,
        n: usize,
        cost: &mut impl FnMut(&mut SmallRng) -> f64,
    ) -> Vec<LsuEntry> {
        let v = rng.gen_range(0..n as u32);
        if v == self.root {
            return Vec::new();
        }
        let old = self.up.get(&v).copied();
        let (nv, nr) = (NodeId(v), |p: u32| NodeId(p));
        match (rng.gen_range(0..4), old) {
            (0, Some((p, _))) => {
                self.up.remove(&v);
                vec![LsuEntry::delete(nr(p), nv)]
            }
            (1, Some((p, _))) => {
                let c = cost(rng);
                self.up.insert(v, (p, c));
                vec![LsuEntry::change(nr(p), nv, c)]
            }
            _ => {
                let u = if rng.gen_bool(0.4) { self.root } else { rng.gen_range(0..n as u32) };
                if u == v || self.below(u, v) {
                    return Vec::new();
                }
                let c = cost(rng);
                self.up.insert(v, (u, c));
                let mut out = vec![LsuEntry::add(nr(u), nv, c)];
                if let Some((p, _)) = old.filter(|&(p, _)| p != u) {
                    out.push(LsuEntry::delete(nr(p), nv));
                }
                out
            }
        }
    }
}

/// An LSU from neighbor `k`: a few tree edits, and stray entries as the
/// case allows.
fn message(rng: &mut SmallRng, n: usize, tree: &mut TreeModel, stray: Stray) -> Vec<LsuEntry> {
    let mut entries = Vec::new();
    for _ in 0..rng.gen_range(1..4) {
        entries.extend(tree.edit(rng, n, &mut grid));
    }
    if rng.gen_bool(0.2) {
        let far = NodeId(if rng.gen_bool(0.5) { u32::MAX } else { n as u32 });
        let near = NodeId(rng.gen_range(0..n as u32));
        let (h, t) = if rng.gen_bool(0.5) { (far, near) } else { (near, far) };
        entries.push(LsuEntry::add(h, t, grid(rng)));
    }
    if stray != Stray::None && rng.gen_bool(0.15) {
        let c = if stray == Stray::Costs { cost(rng) } else { grid(rng) };
        let (h, t) = (id(rng, n), id(rng, n));
        entries.push(match rng.gen_range(0..3) {
            0 => LsuEntry::delete(h, t),
            _ => LsuEntry::add(h, t, c),
        });
    }
    entries
}

fn bits(d: &[f64]) -> Vec<u64> {
    d.iter().map(|x| x.to_bits()).collect()
}

/// What the router under test should hold for one neighbor.
struct Slot {
    cost: LinkCost,
    topo: TopoTable,
    /// An LSU arrived since the link came up (before that, `D^i_jk` is
    /// the all-infinite seed).
    heard: bool,
    /// The link came up and no full table has been sent over it yet.
    needs_full: bool,
    tree: TreeModel,
}

impl Slot {
    fn new(k: u32, cost: LinkCost) -> Self {
        Slot {
            cost,
            topo: TopoTable::new(),
            heard: false,
            needs_full: true,
            tree: TreeModel::new(k),
        }
    }

    fn dist(&self, n: usize, k: NodeId) -> Vec<LinkCost> {
        if self.heard {
            dijkstra(n, &self.topo, k).dist
        } else {
            vec![INFINITE_COST; n]
        }
    }
}

/// MTU recomputed from the neighbor tables on ordered maps: the merged
/// table's shortest-path tree and distances.
fn whole_mtu(me: NodeId, n: usize, slots: &BTreeMap<u32, Slot>) -> (TopoTable, Vec<LinkCost>) {
    let rows: BTreeMap<u32, Vec<LinkCost>> =
        slots.iter().map(|(&k, s)| (k, s.dist(n, NodeId(k)))).collect();
    let mut merged = TopoTable::new();
    for j in (0..n as u32).filter(|&j| j != me.0) {
        let mut best: Option<(LinkCost, u32)> = None;
        for (&k, s) in slots {
            let d = rows[&k][j as usize];
            if d >= INFINITE_COST {
                continue;
            }
            match best {
                Some((b, _)) if d + s.cost >= b => {}
                _ => best = Some((d + s.cost, k)),
            }
        }
        if let Some((_, p)) = best {
            for (t, c) in slots[&p].topo.links_from(NodeId(j)) {
                merged.insert(NodeId(j), t, c);
            }
        }
    }
    for (&k, s) in slots {
        merged.insert(me, NodeId(k), s.cost);
    }
    let spf = dijkstra(n, &merged, me);
    (spf.tree_links(&merged), spf.dist)
}

/// Random messages into one slot; returns the router's counters.
fn ntu_case(seed: u64) -> Result<RouterStats, TestCaseError> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let n = rng.gen_range(2..24);
    let stray = [Stray::None, Stray::Links, Stray::Costs][rng.gen_range(0..3usize)];
    let (me, k) = (NodeId(0), NodeId(rng.gen_range(1..n as u32)));
    let mut r = PdaRouter::new(me, n);
    let mut slot = Slot::new(k.0, 1.0);
    r.handle(RouterEvent::LinkUp { to: k, cost: 1.0 });
    for _ in 0..rng.gen_range(1..40) {
        match rng.gen_range(0..30) {
            // The link fails and returns: T^i_k starts over.
            0 => {
                r.handle(RouterEvent::LinkDown { to: k });
                r.handle(RouterEvent::LinkUp { to: k, cost: 1.0 });
                slot = Slot::new(k.0, 1.0);
            }
            // It comes up again without failing: T^i_k is kept.
            1 => {
                r.handle(RouterEvent::LinkUp { to: k, cost: 1.0 });
            }
            _ => {
                let entries = message(&mut rng, n, &mut slot.tree, stray);
                let msg = LsuMessage::update(k, entries);
                slot.topo.apply_message(&msg);
                slot.heard = true;
                r.handle(RouterEvent::Lsu { from: k, msg });
                let kept: Vec<LinkCost> =
                    (0..n as u32).map(|j| r.neighbor_distance(k, NodeId(j))).collect();
                prop_assert_eq!(bits(&kept), bits(&slot.dist(n, k)), "{:?}", slot.topo);
            }
        }
    }
    Ok(r.stats())
}

/// Random run, preference and adjacency edits; returns the counters.
fn mtu_case(seed: u64) -> Result<RouterStats, TestCaseError> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let n = rng.gen_range(3..16);
    let stray = [Stray::None, Stray::None, Stray::Links, Stray::Costs][rng.gen_range(0..4usize)];
    let me = NodeId(rng.gen_range(0..n as u32));
    let mut r = PdaRouter::new(me, n);
    let mut slots: BTreeMap<u32, Slot> = BTreeMap::new();
    let mut tree = TopoTable::new();
    let others: Vec<u32> = (0..n as u32).filter(|&k| k != me.0).collect();
    for _ in 0..rng.gen_range(1..60) {
        let k = others[rng.gen_range(0..others.len())];
        let nk = NodeId(k);
        let event = match (rng.gen_range(0..20), slots.contains_key(&k)) {
            (0..=2, false) | (0, true) => {
                let c = grid(&mut rng);
                let s = slots.entry(k).or_insert_with(|| Slot::new(k, c));
                (s.cost, s.needs_full) = (c, true);
                RouterEvent::LinkUp { to: nk, cost: c }
            }
            (1, true) => {
                slots.remove(&k);
                RouterEvent::LinkDown { to: nk }
            }
            (2..=4, true) => {
                let c =
                    if stray == Stray::Costs && rng.gen_bool(0.1) { 0.0 } else { grid(&mut rng) };
                slots.entry(k).and_modify(|s| s.cost = c);
                RouterEvent::LinkCost { to: nk, cost: c }
            }
            (_, true) => {
                let s = slots.get_mut(&k).unwrap();
                let mut entries = message(&mut rng, n, &mut s.tree, stray);
                if stray == Stray::Costs && rng.gen_bool(0.1) {
                    entries.extend(s.tree.edit(&mut rng, n, &mut |_| 0.0));
                }
                let msg = LsuMessage::update(nk, entries);
                s.topo.apply_message(&msg);
                s.heard = true;
                RouterEvent::Lsu { from: nk, msg }
            }
            _ => continue,
        };
        let out = r.handle(event.clone());
        let (want_tree, want_dist) = whole_mtu(me, n, &slots);
        let dist: Vec<LinkCost> = (0..n as u32).map(|j| r.distance(NodeId(j))).collect();
        prop_assert_eq!(r.main_topology(), &want_tree, "T^i after {:?}", event);
        prop_assert_eq!(bits(&dist), bits(&want_dist), "D^i_j after {:?}", event);
        let diff = tree.diff(&want_tree);
        let mut want_sends = Vec::new();
        for (&k, s) in slots.iter_mut() {
            let entries = if s.needs_full { want_tree.full_entries() } else { diff.clone() };
            if !entries.is_empty() {
                s.needs_full = false;
                want_sends.push(SendTo { to: NodeId(k), msg: LsuMessage::update(me, entries) });
            }
        }
        prop_assert_eq!(&out.sends, &want_sends, "LSUs after {:?}", event);
        tree = want_tree;
    }
    Ok(r.stats())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 1500, ..ProptestConfig::default() })]

    #[test]
    fn ntu_patch_equals_dijkstra(seed in any::<u64>()) {
        ntu_case(seed)?;
    }

    #[test]
    fn mtu_repair_equals_whole_recompute(seed in any::<u64>()) {
        mtu_case(seed)?;
    }
}

/// Every path the checks aim at is taken: NTU patches, whole walks and
/// Dijkstras; MTU repairs, whole runs and aborted repairs.
#[test]
fn the_generators_reach_every_path() {
    let sum = |a: RouterStats, b: RouterStats| RouterStats {
        ntu_patches: a.ntu_patches + b.ntu_patches,
        ntu_tree_walks: a.ntu_tree_walks + b.ntu_tree_walks,
        ntu_dijkstras: a.ntu_dijkstras + b.ntu_dijkstras,
        mtu_repairs: a.mtu_repairs + b.mtu_repairs,
        mtu_dijkstras: a.mtu_dijkstras + b.mtu_dijkstras,
        mtu_aborts: a.mtu_aborts + b.mtu_aborts,
        ..a
    };
    let ntu = (0..600).map(|s| ntu_case(s).unwrap()).fold(RouterStats::default(), sum);
    assert!(ntu.ntu_patches > 2 * (ntu.ntu_tree_walks + ntu.ntu_dijkstras), "{ntu:?}");
    assert!(ntu.ntu_tree_walks > 200 && ntu.ntu_dijkstras > 100, "{ntu:?}");
    let mtu = (0..600).map(|s| mtu_case(s).unwrap()).fold(RouterStats::default(), sum);
    assert!(mtu.mtu_repairs > mtu.mtu_dijkstras, "{mtu:?}");
    assert!(mtu.mtu_dijkstras > 200 && mtu.mtu_aborts > 20, "{mtu:?}");
}
