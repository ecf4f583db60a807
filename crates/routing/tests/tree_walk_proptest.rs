//! `spf::tree_distances` against `dijkstra` on arbitrary tables:
//! shortest-path trees, forests, nodes with two in-links, links into the
//! root, cycles, ids outside `0..n`, and costs of `0`, `1e18`, above
//! `1e18`, `-1e18` and NaN. The walk must decline exactly when some node below
//! `n` has two in-links, and otherwise give Dijkstra's distances bit for
//! bit.

use mdr_net::{NodeId, INFINITE_COST};
use mdr_routing::spf::{dijkstra, tree_distances};
use mdr_routing::TopoTable;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

fn cost(rng: &mut SmallRng) -> f64 {
    match rng.gen_range(0..12) {
        0 => 0.0,
        1 => INFINITE_COST,
        2 => 2.0 * INFINITE_COST,
        3 => INFINITE_COST / 2.0,
        4 => f64::INFINITY,
        5 => f64::NAN,
        // Off the wire, not from a link: below a node reached at exactly
        // `INFINITE_COST` it brings the sum back into range.
        6 => -INFINITE_COST,
        _ => rng.gen_range(1..100) as f64 / 8.0,
    }
}

/// An id below `n` mostly; sometimes just past it, or `u32::MAX`.
fn id(rng: &mut SmallRng, n: usize) -> NodeId {
    match rng.gen_range(0..12) {
        0 => NodeId(n as u32 + rng.gen_range(0..3u32)),
        1 => NodeId(u32::MAX),
        _ => NodeId(rng.gen_range(0..n as u32)),
    }
}

/// A table of one of four shapes, plus the root to walk from.
fn table(seed: u64) -> (usize, TopoTable, NodeId) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let n = rng.gen_range(1..24);
    let root =
        if rng.gen_range(0..8) == 0 { id(&mut rng, n) } else { NodeId(rng.gen_range(0..n as u32)) };
    let mut links: Vec<(NodeId, NodeId, f64)> = Vec::new();
    match rng.gen_range(0..4) {
        // A shortest-path tree of a random graph, as MTU step 6 keeps.
        0 => {
            let mut g = TopoTable::new();
            for _ in 0..rng.gen_range(0..4 * n) {
                g.insert(id(&mut rng, n), id(&mut rng, n), cost(&mut rng));
            }
            links.extend(dijkstra(n, &g, root).tree_links(&g).iter());
        }
        // A forest: each node picks at most one parent, which may close
        // a cycle or point into the root.
        1 => {
            for v in 0..n as u32 {
                if rng.gen_bool(0.8) {
                    links.push((id(&mut rng, n), NodeId(v), cost(&mut rng)));
                }
            }
        }
        // Arbitrary links.
        2 => {
            for _ in 0..rng.gen_range(0..3 * n) {
                links.push((id(&mut rng, n), id(&mut rng, n), cost(&mut rng)));
            }
        }
        // A tree with a few stray links: second parents, links into the
        // root, back edges.
        _ => {
            for v in 1..n as u32 {
                links.push((NodeId(rng.gen_range(0..v)), NodeId(v), cost(&mut rng)));
            }
            for _ in 0..rng.gen_range(0..3) {
                let head = id(&mut rng, n);
                let tail = if rng.gen_bool(0.3) { root } else { id(&mut rng, n) };
                links.push((head, tail, cost(&mut rng)));
            }
        }
    }
    (n, links.into_iter().collect(), root)
}

/// Some node `t < n` other than the root is the tail of two links whose
/// heads are `< n`.
fn two_in_links(n: usize, t: &TopoTable, root: NodeId) -> bool {
    let mut parents: BTreeMap<NodeId, usize> = BTreeMap::new();
    for (h, tl, _) in t.iter() {
        if h.index() < n && tl.index() < n && tl != root {
            *parents.entry(tl).or_default() += 1;
        }
    }
    parents.values().any(|&p| p > 1)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 4000, ..ProptestConfig::default() })]

    #[test]
    fn tree_walk_equals_dijkstra(seed in any::<u64>()) {
        let (n, t, root) = table(seed);
        let walked = tree_distances(n, &t, root);
        prop_assert_eq!(walked.is_none(), two_in_links(n, &t, root), "{t:?} from {root}");
        if let Some(walked) = walked {
            let bits = |d: &[f64]| d.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let want = dijkstra(n, &t, root).dist;
            prop_assert_eq!(bits(&walked), bits(&want), "{t:?} from {root}");
        }
    }
}

/// Every shape the generator aims at actually occurs, on both sides of
/// the `None` line.
#[test]
fn the_generator_reaches_every_case() {
    let (mut declined, mut walked, mut far_root, mut unreached) = (0, 0, 0, 0);
    for seed in 0..4000 {
        let (n, t, root) = table(seed);
        match tree_distances(n, &t, root) {
            None => declined += 1,
            Some(d) => {
                walked += 1;
                unreached += usize::from(d.iter().any(|&x| x >= INFINITE_COST));
            }
        }
        far_root += usize::from(root.index() >= n);
    }
    assert!(declined > 400 && walked > 400, "{declined} declined, {walked} walked");
    assert!(far_root > 50 && unreached > 400, "{far_root} far roots, {unreached} partial");
}
