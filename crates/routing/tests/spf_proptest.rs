//! The one relaxation loop, `spf::Spf`, against the Dijkstra it
//! replaced: a heap of every pushed `(dist, parent, node)` entry, stale
//! ones skipped on pop, kept here as the reference. On arbitrary tables
//! — disconnected nodes, down links, equal-cost ties, costs at and near
//! `INFINITE_COST`, ids outside `0..n` — `dijkstra` must give the
//! reference's `dist` bit for bit and its `parent` exactly, and one
//! `Spf` reused across every root, over an adjacency with the down links
//! left out, must give the same `dist`. With non-negative costs `dist`
//! must not depend on the order a node's links are listed in.

use mdr_net::{LinkCost, NodeId, INFINITE_COST};
use mdr_routing::spf::{dijkstra, Spf};
use mdr_routing::TopoTable;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

#[derive(PartialEq)]
struct Entry(LinkCost, u32, NodeId);

impl Eq for Entry {}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .0
            .total_cmp(&self.0)
            .then_with(|| other.1.cmp(&self.1))
            .then_with(|| other.2.cmp(&self.2))
    }
}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Dijkstra as it was: every improving or tying relaxation pushed.
fn reference(n: usize, links: &TopoTable, root: NodeId) -> (Vec<LinkCost>, Vec<Option<NodeId>>) {
    let mut dist = vec![INFINITE_COST; n];
    let mut parent = vec![None; n];
    let mut done = vec![false; n];
    if root.index() >= n {
        return (dist, parent);
    }
    dist[root.index()] = 0.0;
    let mut heap = BinaryHeap::new();
    heap.push(Entry(0.0, u32::MAX, root));
    while let Some(Entry(d, via, u)) = heap.pop() {
        if std::mem::replace(&mut done[u.index()], true) {
            continue;
        }
        if via != u32::MAX {
            parent[u.index()] = Some(NodeId(via));
        }
        for (_, v, c) in links.iter().filter(|l| l.0 == u) {
            if v.index() >= n || done[v.index()] {
                continue;
            }
            let nd = d + c;
            if nd < dist[v.index()] {
                dist[v.index()] = nd;
                heap.push(Entry(nd, u.0, v));
            } else if nd == dist[v.index()] {
                heap.push(Entry(nd, u.0, v));
            }
        }
    }
    (dist, parent)
}

fn cost(rng: &mut SmallRng, signed: bool) -> f64 {
    match rng.gen_range(0..16) {
        0 => 0.0,
        1 => INFINITE_COST,
        2 => INFINITE_COST / 2.0,
        3 => INFINITE_COST * (1.0 - f64::EPSILON),
        4 => 2.0 * INFINITE_COST,
        5 => f64::INFINITY,
        6 if signed => f64::NAN,
        7 if signed => -(rng.gen_range(1..8u32) as f64),
        // Small integers: many equal-cost paths.
        8..=11 => rng.gen_range(1..4) as f64,
        _ => rng.gen_range(1..100) as f64 / 8.0,
    }
}

/// A `(head, tail, cost, up)` link.
type Link = (NodeId, NodeId, f64, bool);

/// `n`, links with an up bit, and whether the costs may be negative or
/// NaN. Some nodes get no link at all.
fn graph(seed: u64) -> (usize, Vec<Link>, bool) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let n = rng.gen_range(1..30);
    let signed = rng.gen_bool(0.2);
    let isolated: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.1)).collect();
    let mut links = Vec::new();
    for _ in 0..rng.gen_range(0..5 * n) {
        let h = NodeId(rng.gen_range(0..n as u32 + 2));
        let t = NodeId(rng.gen_range(0..n as u32 + 2));
        if isolated.get(h.index()) == Some(&true) || isolated.get(t.index()) == Some(&true) {
            continue;
        }
        links.push((h, t, cost(&mut rng, signed), rng.gen_bool(0.85)));
    }
    let links: TopoTable = links.iter().map(|&(h, t, c, _)| (h, t, c)).collect();
    // One up bit per distinct (head, tail), after de-duplication.
    let links = links.iter().map(|(h, t, c)| (h, t, c, rng.gen_bool(0.85))).collect();
    (n, links, signed)
}

fn bits(d: &[f64]) -> Vec<u64> {
    d.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 3000, ..ProptestConfig::default() })]

    #[test]
    fn the_shared_loop_equals_the_old_dijkstra(seed in any::<u64>()) {
        let (n, links, signed) = graph(seed);
        let all: TopoTable = links.iter().map(|&(h, t, c, _)| (h, t, c)).collect();
        let up: TopoTable = links.iter().filter(|l| l.3).map(|&(h, t, c, _)| (h, t, c)).collect();
        // Out-links per head below `n`, down ones marked: the adjacency
        // `Spf::run` reads, forwards and reversed.
        let mut adj: Vec<Vec<(usize, f64, bool)>> = vec![Vec::new(); n];
        for &(h, t, c, is_up) in &links {
            if h.index() < n {
                adj[h.index()].push((t.index(), c, is_up));
            }
        }
        let mut spf = Spf::default();
        let mut backwards = Spf::default();
        for root in (0..n as u32 + 1).map(NodeId) {
            let (dist, parent) = reference(n, &all, root);
            let got = dijkstra(n, &all, root);
            prop_assert_eq!(bits(&got.dist), bits(&dist), "{:?} from {}", all, root);
            prop_assert_eq!(&got.parent, &parent, "{:?} from {}", all, root);
            prop_assert_eq!(got.settled, parent.iter().filter(|p| p.is_some()).count()
                + usize::from(root.index() < n));

            let (dist, _) = reference(n, &up, root);
            spf.run(n, root, |u| adj[u].iter().filter(|l| l.2).map(|l| (l.0, l.1)));
            prop_assert_eq!(bits(spf.dist()), bits(&dist), "{:?} from {}", up, root);
            if !signed {
                backwards.run(n, root, |u| adj[u].iter().rev().filter(|l| l.2).map(|l| (l.0, l.1)));
                prop_assert_eq!(bits(backwards.dist()), bits(&dist), "{:?} from {}", up, root);
            }
        }
    }
}

/// The generator reaches the cases it aims at.
#[test]
fn the_generator_reaches_every_case() {
    let (mut ties, mut near_infinite, mut unreached) = (0, 0, 0);
    for seed in 0..3000 {
        let (n, links, _) = graph(seed);
        let all: TopoTable = links.iter().map(|&(h, t, c, _)| (h, t, c)).collect();
        let d = dijkstra(n, &all, NodeId(0));
        unreached += usize::from(d.dist.iter().any(|&x| x >= INFINITE_COST));
        near_infinite +=
            usize::from(d.dist.iter().any(|&x| (INFINITE_COST / 2.0..INFINITE_COST).contains(&x)));
        // Two shortest paths to one node: some node's distance is met
        // again through a parent other than the one kept.
        ties += usize::from(all.iter().any(|(h, t, c)| {
            h.index() < n
                && t.index() < n
                && d.parent[t.index()].is_some_and(|p| p != h)
                && d.dist[h.index()] + c == d.dist[t.index()]
        }));
    }
    assert!(
        ties > 300 && near_infinite > 300 && unreached > 300,
        "{ties} {near_infinite} {unreached}"
    );
}
